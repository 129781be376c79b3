"""Compare two result sets of the benchmark.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are directories (or single files) of records that ``run.py``
wrote to ``.perfbench_results/``; copy each side's records into a
directory of its own.  For every workload and metric it prints each side's
median and quartiles and the ratio NEW/BASE with its base.  An end-to-end
metric whose spread, (Q3 - Q1) / median, exceeds its bound on either side
is "unresolved" unless every NEW run beats every BASE run.  Count metrics
are compared exactly, seed by seed.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXACT_UNITS = ("count", "bytes", "pct")


def load(path):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    records = []
    for name in files:
        with open(name, "r", encoding="utf-8") as fh:
            records.append(json.load(fh))
    if not records:
        raise SystemExit(f"no result records in {path}")
    return records


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _series(records, workload, section, metric):
    """(seed, value) pairs of one metric: end-to-end ones from untraced runs,
    per-layer ones from traced runs."""
    traced = section == "per_layer"
    return [(r["seed"], r[section][metric]["value"]) for r in records
            if r["workload"] == workload and bool(r["trace"]) == traced
            and metric in r[section]]


def verdict(base, new, bound, better):
    """Classify NEW against BASE for one timed metric."""
    b1, bm, b3 = _quartiles(base)
    n1, nm, n3 = _quartiles(new)
    sign = 1.0 if better == "higher" else -1.0
    if bound is not None and bm and nm and max((b3 - b1) / abs(bm), (n3 - n1) / abs(nm)) > bound:
        if min(sign * v for v in new) > max(sign * v for v in base):
            return "better (every run)"
        return "unresolved"
    if bound is None:
        return ""
    change = sign * (nm - bm) / abs(bm) if bm else 0.0
    if change < -bound:
        return "regression"
    return "better" if change > bound else "within bound"


def compare(base, new, spec):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in new})
    lines = []
    for w in workloads:
        for section in ("end_to_end", "per_layer"):
            metrics = sorted({m for r in base + new if r["workload"] == w for m in r[section]})
            for m in metrics:
                b = _series(base, w, section, m)
                n = _series(new, w, section, m)
                if not b or not n:
                    continue
                unit = next(r[section][m]["unit"] for r in base if m in r[section])
                if unit in EXACT_UNITS:
                    bs, ns = dict(b), dict(n)
                    common = sorted(set(bs) & set(ns))
                    diff = [s for s in common if bs[s] != ns[s]]
                    note = (f"exact: differs on seeds {diff}" if diff
                            else f"exact: equal on {len(common)} seeds")
                else:
                    spec_m = bounds.get(m, {})
                    note = verdict([v for _, v in b], [v for _, v in n],
                                   spec_m.get("bound"), spec_m.get("better", "lower"))
                b1, bm, b3 = _quartiles([v for _, v in b])
                n1, nm, n3 = _quartiles([v for _, v in n])
                ratio = f"{nm / bm:.3f}x of {bm:.6g}" if bm else "base 0"
                lines.append(f"{w:<18} {m:<32} {unit:<6} base {bm:.6g} [{b1:.6g}, {b3:.6g}] "
                             f"new {nm:.6g} [{n1:.6g}, {n3:.6g}] {ratio} {note}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for line in compare(load(args.base), load(args.new), spec):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
