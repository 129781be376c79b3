"""Every CLI document of a small fixed corpus, pinned by its sha256.

The corpus is two seeded random trees written by ``gen``, a seeded zero-mean
``g`` on each, and on each tree:

- ``norms`` at two (p, q) pairs;
- ``decompose`` and ``verify`` for all six flavor/definition variants at the
  same two pairs;
- ``duality`` in exact and in heuristic mode.

``tests/cli_bytes.json`` holds each document's exit code and sha256.  A
refactor that keeps the numbers keeps every byte, so this test must pass
unchanged.  Changing a hash needs a ``CHANGES.md`` entry that names the
documents that changed and the reason.  ``python tests/test_cli_bytes.py``
rewrites the file from the current code and names each pin it adds, drops or
changes.
"""

import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from amalgam import jsonio
from amalgam.atoms import DEFNS, FLAVORS
from amalgam.cli import main

PINS = Path(__file__).with_name("cli_bytes.json")
PQ = ((0.5, 1.0), (2.0, 0.75))
GEN = ["gen", "--generator", "random-tree", "--count", "2", "--seed", "1", "--depth", "3",
       "--max-branching", "3", "--block-policy", "random-partition", "--block-param", "2"]


def _documents(work, reverse=False):
    """{name: (exit code, sha256 of the document's bytes)} for the corpus.

    The pipelines (one norms call, decompose then verify, or one duality
    call) run in
    corpus order, or in reverse with ``reverse``.
    """
    out = {}
    pipelines = []

    def run(name, argv):
        path = os.path.join(work, name + ".json")
        code = main(argv + ["--output", path])
        out[name] = [code, hashlib.sha256(Path(path).read_bytes()).hexdigest()]

    assert main(GEN + ["--out-dir", work]) == 0
    rng = np.random.default_rng(5)
    for i in range(2):
        mp = os.path.join(work, f"mart_{i:04d}.json")
        out[f"gen_{i}"] = [0, hashlib.sha256(Path(mp).read_bytes()).hexdigest()]
        space = jsonio.martingale_from_doc(jsonio.load_json(mp)).space
        g = rng.standard_normal(space.size)
        gp = os.path.join(work, f"g_{i}.json")
        jsonio.dump_json(jsonio.function_to_doc(space, g - float(space.prob @ g)), gp)
        for p, q in PQ:
            pipelines.append([(f"norms_{i}_p{p}-q{q}",
                               ["norms", "--input", mp, "--p", str(p), "--q", str(q)])])
            for flavor in FLAVORS:
                for defn in DEFNS:
                    tag = f"{i}_{flavor}-{defn}_p{p}-q{q}"
                    dp = os.path.join(work, f"decompose_{tag}.json")
                    pipelines.append([
                        (f"decompose_{tag}",
                         ["decompose", "--input", mp, "--p", str(p), "--q", str(q),
                          "--flavor", flavor, "--defn", defn]),
                        (f"verify_{tag}", ["verify", "--input", mp, "--decomposition", dp]),
                    ])
        for mode in ("exact", "heuristic"):
            pipelines.append([(f"duality_{i}_{mode}",
                               ["duality", "--input", mp, "--g", gp, "--p", "0.5", "--q", "1",
                                "--mode", mode])])
    for pipeline in reversed(pipelines) if reverse else pipelines:
        for name, argv in pipeline:
            run(name, argv)
    return out


def test_cli_documents_match_pinned_hashes(tmp_path):
    pinned = json.loads(PINS.read_text(encoding="utf-8"))
    got = _documents(str(tmp_path))
    assert sorted(got) == sorted(pinned)
    changed = [name for name in sorted(got) if got[name] != pinned[name]]
    assert not changed, changed


def test_pins_hold_when_the_pipelines_repeat_in_one_process(tmp_path):
    # the second pass finds each martingale's bytes decoded before, at
    # another path; reversed, duality and verify calls meet the memo first
    pinned = json.loads(PINS.read_text(encoding="utf-8"))
    for reverse in (False, True, True, False):
        got = _documents(str(tmp_path / str(reverse)), reverse)
        changed = [name for name in sorted(got) if got[name] != pinned[name]]
        assert not changed, (reverse, changed)


if __name__ == "__main__":
    import tempfile

    old = json.loads(PINS.read_text(encoding="utf-8")) if PINS.exists() else {}
    with tempfile.TemporaryDirectory() as work:
        docs = _documents(work)
    PINS.write_text(json.dumps(docs, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    for name in sorted(old.keys() | docs.keys()):
        if name not in docs:
            print(f"dropped {name}", file=sys.stderr)
        elif name not in old:
            print(f"added {name}", file=sys.stderr)
        elif docs[name] != old[name]:
            print(f"changed {name}", file=sys.stderr)
    print(f"wrote {len(docs)} pins to {PINS}", file=sys.stderr)
