"""The CLI's exit-code contract: a call returns 0, 1 or 2, and nothing escapes ``main``.

Each example generates one small seeded tree, then runs norms, decompose, verify
and, where the duality chain is defined, duality on it, and explore on two such
trees, at exponents from the edges of the float range.  A RuntimeWarning is an
error under the pytest configuration, so a call that warns fails too.  A second
property runs ``gen`` and ``explore`` on valid specs of up to 64 children per cell,
where both must exit 0.
"""

import os
import tempfile

from hypothesis import given, strategies as st

from amalgam import jsonio
from amalgam.atoms import DEFNS, FLAVORS
from amalgam.cli import main
from amalgam.harness import BLOCK_POLICIES, GENERATORS

EXPONENTS = ("1e-300", "1e-17", "0.002", "0.05", "0.5", "1", "2", "1e300", "inf")
CODES = (0, 1, 2)


def _pipeline(work, spec, p, q, eta, r, flavor, defn, mode):
    """Exit codes of the four document subcommands on the tree of ``spec``.  ``explore``
    runs on two trees of ``spec`` and certifies nothing, so it exits 0 or 2."""
    assert main(["gen", *spec, "--count", "1", "--out-dir", work]) == 0
    mp, dp, gp = (os.path.join(work, name) for name in ("mart_0000.json", "dec.json", "g.json"))
    f, _ = jsonio.load_martingale(mp)
    jsonio.dump_json(jsonio.function_to_doc(f.space, f.terminal), gp)
    out = os.path.join(work, "out.json")
    pq = ["--p", p, "--q", q]
    codes = [
        main(["norms", "--input", mp, *pq, "--output", out]),
        main(["decompose", "--input", mp, *pq, "--flavor", flavor, "--defn", defn,
              "--eta-grid", eta, "--output", dp]),
        main(["verify", "--input", mp, "--decomposition", dp, "--eta-grid", eta, "--r", r,
              "--output", out]),
    ]
    if 0 < float(p) <= float(q) <= 1:
        codes.append(main(["duality", "--input", mp, "--g", gp, *pq, "--mode", mode,
                           "--output", out]))
    assert main(["explore", *spec, "--count", "2", *pq]) in (0, 2)
    return codes


@given(st.sampled_from(GENERATORS), st.integers(0, 3), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 2 ** 16), st.sampled_from(EXPONENTS), st.sampled_from(EXPONENTS),
       st.sampled_from(("1e-17", "0.001", "1")), st.sampled_from(("2", "inf", "1e308")),
       st.sampled_from(FLAVORS), st.sampled_from(DEFNS), st.sampled_from(("exact", "heuristic")))
def test_every_document_call_exits_0_1_or_2(generator, depth, branching, blocks, seed, p, q,
                                            eta, r, flavor, defn, mode):
    spec = ["--generator", generator, "--depth", str(depth), "--max-branching", str(branching),
            "--block-policy", "random-partition", "--block-param", str(blocks),
            "--seed", str(seed)]
    with tempfile.TemporaryDirectory() as work:
        codes = _pipeline(work, spec, p, q, eta, r, flavor, defn, mode)
    assert set(codes) <= set(CODES), codes


@given(st.sampled_from(GENERATORS), st.integers(0, 2), st.integers(1, 64),
       st.sampled_from(BLOCK_POLICIES), st.integers(0, 3), st.integers(0, 2 ** 16))
def test_gen_and_explore_exit_0_on_every_valid_wide_spec(generator, depth, branching, policy,
                                                         param, seed):
    # a cell with more than ten children once named two outcomes alike, and the
    # space was refused with exit 2
    spec = ["--generator", generator, "--depth", str(depth), "--max-branching", str(branching),
            "--block-policy", policy, "--block-param", str(param), "--seed", str(seed)]
    with tempfile.TemporaryDirectory() as work:
        assert main(["gen", *spec, "--count", "2", "--out-dir", work]) == 0
    assert main(["explore", *spec, "--count", "1", "--p", "0.5", "--q", "1"]) == 0


def test_the_two_crash_reproducers_exit_0(tmp_path):
    # 2^eta - 1 was 0.0 at eta = 1e-17, and the quotient of a cell with A = 0 was
    # 0/0 at p = q = 0.002
    spec = ["--generator", "dyadic", "--depth", "3", "--seed", "2"]
    work = str(tmp_path)
    assert _pipeline(work, spec, "0.5", "1", "1e-17", "2", "s", "simple", "exact") == [0] * 4
    for mode in ("exact", "heuristic"):
        assert _pipeline(work, spec, "0.002", "0.002", "1", "inf", "s", "simple", mode)[3] == 0
