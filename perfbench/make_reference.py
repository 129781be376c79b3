"""Regenerate ``reference.json``: the oracle's expected values per pool entry.

    python3 perfbench/make_reference.py

Runs every pool entry of every workload once through the checkout's
``amalgam`` CLI and records what each call returned, keyed by entry and
tagged with the digest of the entry's documents.  Run it only when the
pool or the program's intended results change, and review the diff.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import corpus
import oracle
import worker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def reference_entry(cli, workload, s, index, work):
    entry = corpus.make_entry(workload, s, index)
    doc = corpus.materialise(entry, work, 0)
    ref = {"digest": doc["digest"]}
    for step in doc["steps"]:
        code = cli.main(step["argv"])
        if code != 0:
            raise SystemExit(f"{entry.key} {step['step']}: exit code {code}")
        ref[step["step"]] = oracle.extract(step["step"], step["output"])
    return entry.key, ref


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    amalgam = worker.import_program(ROOT)
    path = os.path.join(HERE, "reference.json")
    entries = {}
    work = os.path.join(ROOT, ".perfbench_work", f"reference-{os.getpid()}")
    os.makedirs(os.path.join(work, "out"), exist_ok=True)
    try:
        for workload in corpus.WORKLOADS.values():
            for s, st in enumerate(workload.strata):
                for index in range(st.pool):
                    key, ref = reference_entry(amalgam.cli, workload, s, index, work)
                    entries[key] = ref
                print(f"{workload.name}/{st.name}: {st.pool} entries", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"entries": entries}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
