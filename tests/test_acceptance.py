"""Acceptance battery.

Each test covers one numbered criterion and prints a single PASS/FAIL
line (run pytest with -s or look at captured output).  Tolerances are
stated inline and are part of the contract.
"""

import math
import time

import numpy as np
import pytest

from amalgam import (
    AtomTriple,
    CorpusSpec,
    Decomposition,
    aggregate_eta_norm,
    all_five_norms,
    campanato_norm,
    certify_bounds,
    certify_duality,
    conditional_quadratic_variation,
    decompose,
    explore_embeddings,
    from_terminal,
    generate,
    hardy_s_norm,
    hardy_star_norm,
    lp_norm,
    lpq_norm,
    quadratic_variation,
    reconstruct,
    reverse_minkowski_check,
    verify_atom,
)
from amalgam.atoms import DEFNS, FLAVORS
from conftest import random_martingale, random_tree_space

ALL_COMBOS = [(fl, df) for fl in FLAVORS for df in DEFNS]


def _report(number, label, ok):
    print(f"criterion {number:02d} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number:02d} ({label}) failed"


def _corpus(rng, count):
    out = []
    for i in range(count):
        depth = 2 + i % 5                      # depths 2..6
        branching = 2 if i % 2 == 0 else 3     # binary and ternary trees
        if branching == 3 and depth > 4:
            depth = 4                          # keep ternary sizes modest
        space = random_tree_space(rng, depth=depth, branching=branching,
                                  n_blocks=2)
        out.append((space, random_martingale(rng, space)))
    return out


@pytest.fixture(scope="module")
def corpus500():
    return _corpus(np.random.default_rng(1000), 500)


@pytest.fixture(scope="module")
def corpus_small():
    return _corpus(np.random.default_rng(1001), 60)


def test_criterion_01_reconstruction(corpus500):
    # every decomposition variant reconstructs every level within a
    # relative error of 1e-10, across 500 seeded spaces, within 60 s
    start = time.monotonic()
    ok = True
    for space, f in corpus500:
        scale = max(1.0, float(np.max(np.abs(f.levels))))
        for flavor, defn in ALL_COMBOS:
            d = decompose(f, 0.5, 1.0, flavor=flavor, defn=defn)
            for n in range(space.depth + 1):
                resid = float(np.max(np.abs(reconstruct(d)[n] - f.levels[n])))
                ok = ok and resid <= 1e-10 * scale
    ok = ok and (time.monotonic() - start) <= 60.0
    _report(1, "exact ladder reconstruction", ok)


def test_criterion_02_atom_conditions(corpus_small):
    # every emitted triple passes the atom conditions at each admissible
    # verification exponent r in {2, 4, inf}
    ok = True
    for space, f in corpus_small:
        for p, q in ((0.5, 1.0), (1.0, 1.0)):
            for flavor, defn in ALL_COMBOS:
                d = decompose(f, p, q, flavor=flavor, defn=defn)
                rs = [r for r in (2.0, 4.0, math.inf) if r > max(p, 1.0)]
                for t in d.triples:
                    ok = ok and all(rep.passed for rep in verify_atom(d, t, rs))
    _report(2, "atom conditions at r in {2,4,inf}", ok)


def test_criterion_03_upper_bounds(corpus_small):
    # aggregate(eta) <= C(eta) * source norm on the full eta grid, with
    # the documented extra factor 2 for the envelope flavors
    ok = True
    for space, f in corpus_small:
        for p, q in ((0.5, 0.5), (0.5, 1.0), (1.0, 1.0), (2.0, 2.0), (1.0, 2.0)):
            for flavor, defn in ALL_COMBOS:
                d = decompose(f, p, q, flavor=flavor, defn=defn)
                cert = certify_bounds(d)
                ok = ok and all(e.upper_ok for e in cert.entries)
    _report(3, "upper bound certificates", ok)


def test_criterion_04_converse_bounds(corpus_small):
    # source norm <= aggregate(eta) with constant 1, and the inequality
    # survives 100 coefficient-inflation perturbations of valid ladders
    ok = True
    for space, f in corpus_small:
        for flavor, defn in ALL_COMBOS:
            d = decompose(f, 0.5, 1.0, flavor=flavor, defn=defn)
            cert = certify_bounds(d)
            ok = ok and all(e.converse_ok for e in cert.entries)
    rng = np.random.default_rng(1002)
    for _ in range(100):
        space, f = corpus_small[int(rng.integers(0, len(corpus_small)))]
        d = decompose(f, 0.5, 1.0, flavor="s", defn="simple")
        c = float(rng.uniform(1.0, 10.0))
        scaled = Decomposition(
            space, d.flavor, d.defn, d.p, d.q,
            [
                AtomTriple(t.k, t.lam * c, t.terminal / c, t.nu)
                for t in d.triples
            ],
            d.source_norm,
        )
        ok = ok and all(verify_atom(scaled, t)[0].passed for t in scaled.triples)
        ok = ok and all(e.converse_ok for e in certify_bounds(scaled).entries)
    _report(4, "converse bounds with constant 1", ok)


def test_criterion_05_golden_fixture(worked_example):
    # the hand-checked depth-2 example, everything pinned at 1e-12
    space, f = worked_example
    d = decompose(f, 2, 2, flavor="s", defn="simple")
    lam = {t.k: t.lam for t in d.triples}
    checks = [
        abs(hardy_s_norm(f, 2, 2) - math.sqrt(1.5)) <= 1e-12,
        abs(hardy_star_norm(f, 2, 2) - math.sqrt(1.75)) <= 1e-12,
        set(lam) == {-1, 0},
        abs(lam[-1] - 1.0) <= 1e-12,
        abs(lam[0] - math.sqrt(2.0)) <= 1e-12,
        abs(aggregate_eta_norm(d, 1.0) - math.sqrt(5.0)) <= 1e-12,
        all(
            float(np.max(np.abs(reconstruct(d)[n] - f.levels[n]))) <= 1e-12
            for n in range(3)
        ),
    ]
    _report(5, "golden depth-2 fixture", all(checks))


def test_criterion_06_amalgam_norm_structure():
    # p = q collapses to the plain L_p norm within 1e-12, and the norm is
    # non-increasing in q, over 1000 random (function, exponent) pairs
    rng = np.random.default_rng(1003)
    ok = True
    for _ in range(1000):
        space = random_tree_space(rng, depth=int(rng.integers(1, 4)),
                                  branching=3, n_blocks=int(rng.integers(1, 5)))
        g = rng.standard_normal(space.size) * rng.uniform(0.1, 10)
        p = float(rng.uniform(0.2, 4.0))
        diag = lpq_norm(space, g, p, p)
        ref = lp_norm(space, g, p)
        ok = ok and abs(diag - ref) <= 1e-12 * max(1.0, ref)
        q1 = float(rng.uniform(0.2, 4.0))
        q2 = q1 + float(rng.uniform(0.0, 4.0))
        ok = ok and lpq_norm(space, g, p, q1) >= lpq_norm(space, g, p, q2) - 1e-12
    _report(6, "amalgam norm diagonal and q-monotonicity", ok)


def test_criterion_07_reverse_minkowski():
    # holds on 200 random families at sub-unit exponents; rejects p >= 1
    rng = np.random.default_rng(1004)
    ok = True
    for _ in range(200):
        space = random_tree_space(rng, depth=2, branching=3,
                                  n_blocks=int(rng.integers(1, 4)))
        fs = [rng.standard_normal(space.size)
              for _ in range(int(rng.integers(2, 6)))]
        for p, q in ((0.5, 0.5), (0.3, 1.0), (0.9, 0.7)):
            ok = ok and reverse_minkowski_check(space, fs, p, q).ok
    try:
        reverse_minkowski_check(space, fs, 1.0, 1.0)
        ok = False
    except ValueError:
        pass
    _report(7, "reverse Minkowski at sub-unit exponents", ok)


def test_criterion_08_duality_chain():
    # the chain |E[fg]| <= atomwise <= C ||f|| ||g|| holds on 200 random
    # pairs, and the heuristic Campanato value never exceeds the exact one
    rng = np.random.default_rng(1005)
    ok = True
    for _ in range(200):
        space = random_tree_space(rng, depth=int(rng.integers(2, 4)),
                                  branching=2, n_blocks=2)
        f = random_martingale(rng, space)
        g = rng.standard_normal(space.size)
        g -= float(space.prob @ g)
        for p, q in ((0.5, 1.0), (1.0, 1.0)):
            ok = ok and certify_duality(f, g, p, q).chain_ok
    for _ in range(20):
        space = random_tree_space(rng, depth=2, branching=2, n_blocks=2)
        g = rng.standard_normal(space.size)
        g -= float(space.prob @ g)
        exact = campanato_norm(space, g, 0.5, 1.0, mode="exact")
        heur = campanato_norm(space, g, 0.5, 1.0, mode="heuristic")
        ok = ok and exact.mode == "exact-enumeration"
        ok = ok and heur.norm_value <= exact.norm_value + 1e-12
    _report(8, "duality chain certificates", ok)


def test_criterion_09_l2_isometry(corpus_small):
    # E f_N^2 = E S(f)^2 = E s(f)^2 within 1e-10 relative
    ok = True
    for space, f in corpus_small:
        a = float(space.prob @ f.terminal**2)
        b = float(space.prob @ quadratic_variation(f) ** 2)
        c = float(space.prob @ conditional_quadratic_variation(f) ** 2)
        scale = max(1.0, a)
        ok = ok and abs(a - b) <= 1e-10 * scale and abs(a - c) <= 1e-10 * scale
    _report(9, "L2 isometry of quadratic variations", ok)


def test_criterion_10_embedding_explorer():
    # both tables have all 20 ordered pairs over every martingale, and the two
    # embeddings with constant 1, f* <= ||f||_P and S(f) <= ||f||_Q pointwise,
    # hold within 1e-12 relative on and off the diagonal
    corpus = generate(CorpusSpec(generator="random-tree", count=50, seed=11,
                                 depth=3, max_branching=2,
                                 block_policy="random-partition", block_param=2))
    diag = explore_embeddings(corpus, 1.0, 1.0)
    off = explore_embeddings(corpus, 0.5, 1.0)
    ok = (
        len(diag.rows) == 20
        and len(off.rows) == 20
        and len(off.to_csv().splitlines()) == 21
    )
    for table in (diag, off):
        rows = {(r.numerator, r.denominator): r for r in table.rows}
        ok = ok and all(r.samples == 50 for r in table.rows)
        ok = ok and rows["hardy_star", "p_space"].max_ratio <= 1 + 1e-12
        ok = ok and rows["hardy_S", "q_space"].max_ratio <= 1 + 1e-12
    _report(10, "norm-embedding explorer", ok)
