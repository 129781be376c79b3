import math

import numpy as np
import pytest

from amalgam import (
    FilteredSpace,
    all_five_norms,
    from_terminal,
    hardy_S_norm,
    hardy_s_norm,
    hardy_star_norm,
    lp_norm,
    lpq_norm,
    p_space_norm,
    q_space_norm,
)
from conftest import random_martingale, random_tree_space


def test_lpq_constant_single_block():
    space = FilteredSpace(["a", "b"], [0.5, 0.5], [[["a", "b"]]], [["a", "b"]])
    for p in (0.3, 0.5, 1.0, 2.0, 7.0):
        for q in (0.5, 1.0, 2.0, math.inf):
            assert lpq_norm(space, np.ones(2), p, q) == pytest.approx(1.0)


def test_lpq_constant_two_half_blocks(dyadic2):
    # each block carries integral 1/2, so the norm is 2^(1/q - 1/p)
    for p in (0.5, 1.0, 2.0):
        for q in (0.5, 1.0, 2.0, 4.0):
            expect = 2.0 ** (1.0 / q - 1.0 / p)
            assert lpq_norm(dyadic2, np.ones(4), p, q) == pytest.approx(expect)
        assert lpq_norm(dyadic2, np.ones(4), p, math.inf) == pytest.approx(
            2.0 ** (-1.0 / p)
        )


def test_lpq_diagonal_is_lp():
    rng = np.random.default_rng(20)
    for _ in range(50):
        space = random_tree_space(rng, depth=2, branching=3, n_blocks=3)
        g = rng.standard_normal(space.size) * rng.uniform(0.1, 10)
        for p in (0.3, 0.7, 1.0, 2.0, 5.0):
            assert lpq_norm(space, g, p, p) == pytest.approx(
                lp_norm(space, g, p), rel=1e-12, abs=1e-15
            )


def test_lpq_decreasing_in_q():
    rng = np.random.default_rng(21)
    qs = (0.3, 0.5, 1.0, 2.0, 4.0, math.inf)
    for _ in range(20):
        space = random_tree_space(rng, depth=2, branching=3, n_blocks=4)
        g = rng.standard_normal(space.size)
        for p in (0.5, 1.0, 2.0):
            vals = [lpq_norm(space, g, p, q) for q in qs]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_lpq_homogeneous_and_zero():
    rng = np.random.default_rng(22)
    space = random_tree_space(rng, depth=2, branching=2, n_blocks=2)
    g = rng.standard_normal(space.size)
    for p, q in ((0.5, 1.0), (2.0, 0.5), (1.0, math.inf)):
        base = lpq_norm(space, g, p, q)
        assert lpq_norm(space, 3.0 * g, p, q) == pytest.approx(3.0 * base)
        assert lpq_norm(space, np.zeros(space.size), p, q) == 0.0


def test_lpq_zero_blocks_ignored():
    space = FilteredSpace(
        ["a", "b"], [0.5, 0.5], [[["a", "b"]], [["a"], ["b"]]], [["a"], ["b"]]
    )
    g = np.array([2.0, 0.0])
    # the empty block must not drag the q = inf value or enter finite sums
    assert lpq_norm(space, g, 2.0, math.inf) == pytest.approx(2.0 * np.sqrt(0.5))
    assert lpq_norm(space, g, 2.0, 1.0) == pytest.approx(2.0 * np.sqrt(0.5))


def test_lpq_small_exponents_log_path():
    rng = np.random.default_rng(23)
    space = random_tree_space(rng, depth=2, branching=2, n_blocks=2)
    g = np.abs(rng.standard_normal(space.size)) + 0.5
    # the log-space branch must agree with the diagonal identity
    for p in (0.01, 0.05):
        assert lpq_norm(space, g, p, p) == pytest.approx(
            lp_norm(space, g, p), rel=1e-10
        )
    # and with a directly computed two-block value off the diagonal
    integrals = [
        float(np.sum(space.prob[space.block_labels == j] * g[space.block_labels == j] ** 0.02))
        for j in range(space.n_blocks)
    ]
    direct = sum(x ** (0.03 / 0.02) for x in integrals) ** (1 / 0.03)
    assert lpq_norm(space, g, 0.02, 0.03) == pytest.approx(direct, rel=1e-10)


def test_lpq_rejects_bad_exponents(dyadic2):
    with pytest.raises(ValueError):
        lpq_norm(dyadic2, np.ones(4), 0.0, 1.0)
    with pytest.raises(ValueError):
        lpq_norm(dyadic2, np.ones(4), math.inf, 1.0)
    with pytest.raises(ValueError):
        lpq_norm(dyadic2, np.ones(4), 1.0, -1.0)


def test_lp_rejects_bad_exponents_but_takes_infinity(dyadic2):
    g = np.array([1.0, -2.0, 0.5, 0.0])
    for p in (0.0, -1.0, math.nan, -math.inf):
        with pytest.raises(ValueError, match="p must lie in"):
            lp_norm(dyadic2, g, p)
    assert lp_norm(dyadic2, g, math.inf) == 2.0


def test_hardy_norms_worked_example(worked_example):
    _, f = worked_example
    assert hardy_s_norm(f, 2, 2) == pytest.approx(np.sqrt(1.5))
    assert hardy_S_norm(f, 2, 2) == pytest.approx(np.sqrt(1.5))
    assert hardy_star_norm(f, 2, 2) == pytest.approx(np.sqrt(1.75))


def test_envelope_norms_coin(coin):
    _, f = coin
    assert q_space_norm(f, 1, 1) == pytest.approx(1.0)
    assert p_space_norm(f, 1, 1) == pytest.approx(1.0)
    assert hardy_S_norm(f, 1, 1) == pytest.approx(1.0)


def test_envelope_norms_dominate_pathwise_norms():
    rng = np.random.default_rng(24)
    for _ in range(30):
        space = random_tree_space(rng, depth=3, branching=3, n_blocks=2)
        f = random_martingale(rng, space)
        for p, q in ((0.5, 0.5), (0.5, 1.0), (1.0, 2.0), (2.0, 2.0)):
            assert q_space_norm(f, p, q) >= hardy_S_norm(f, p, q) - 1e-12
            assert p_space_norm(f, p, q) >= hardy_star_norm(f, p, q) - 1e-12


def test_all_five_norms_keys(worked_example):
    _, f = worked_example
    d = all_five_norms(f, 2, 2)
    assert set(d) == {"hardy_s", "hardy_S", "hardy_star", "q_space", "p_space"}
    assert d["hardy_s"] == pytest.approx(np.sqrt(1.5))
    assert all(v >= 0 for v in d.values())
