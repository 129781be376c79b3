import decimal
import math
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from amalgam import (
    CorpusSpec,
    FilteredSpace,
    all_five_norms,
    conditional_quadratic_variation,
    conditional_quadratic_variation_partial,
    from_terminal,
    generate,
    hardy_S_norm,
    hardy_s_norm,
    hardy_star_norm,
    lp_norm,
    lpq_norm,
    maximal_function,
    minimal_envelope,
    p_space_norm,
    q_space_norm,
    quadratic_variation,
    quadratic_variation_partial,
    regularity_constant,
)
from amalgam import martingale, norms
from amalgam.norms import lq_aggregate
from conftest import random_martingale, random_tree_space, small_martingales, small_trees


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


@given(small_trees(random_weights=True, max_blocks=3), st.data(),
       st.floats(math.log(0.05), math.log(8.0)).map(math.exp))
def test_lpq_diagonal_is_lp_over_random_blocks(space, data, p):
    g = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=space.size,
                                    max_size=space.size)))
    assert lpq_norm(space, g, p, p) == pytest.approx(lp_norm(space, g, p), rel=1e-12, abs=0)


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


def test_norms_do_not_overflow_on_representable_values(coin):
    # g ** p and d * d overflow at 1e200; the norms are homogeneous, so
    # factoring out the largest magnitude keeps every step finite
    space, _ = coin
    assert lpq_norm(space, [1e200, 2.0], 2, 2) == pytest.approx(1e200 / math.sqrt(2), rel=1e-12)
    assert lp_norm(space, [1e200, 2.0], 2) == pytest.approx(1e200 / math.sqrt(2), rel=1e-12)
    # and tiny values no longer underflow to a zero norm
    assert lpq_norm(space, [1e-200, 0.0], 2, 1) == pytest.approx(1e-200 / math.sqrt(2), rel=1e-12)
    f = from_terminal(space, [1e200, -1e200])
    for name, value in all_five_norms(f, 2, 2).items():
        assert value == pytest.approx(1e200, rel=1e-12), name
    assert np.allclose(quadratic_variation_partial(f), [[0.0, 0.0], [1e200, 1e200]],
                       rtol=1e-12, atol=0.0)
    assert np.allclose(conditional_quadratic_variation_partial(f),
                       [[0.0, 0.0], [1e200, 1e200]], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("p", [sys.float_info.min, 1e-300, 1e-12])
def test_lpq_tiny_exponents_reach_the_geometric_mean(coin, p):
    # on values 1 and 2 with weights 1/2, log E[g^p] / p = log(2)/2 + p log(2)^2/8
    # + O(p^3), so the limit p = q -> 0 is the geometric mean sqrt(2)
    space, _ = coin
    expect = math.sqrt(2.0) * math.exp(p * math.log(2.0) ** 2 / 8)
    assert lpq_norm(space, [1.0, 2.0], p, p) == pytest.approx(expect, rel=1e-12)
    assert lpq_norm(space, [1.0, 2.0], p, math.inf) == pytest.approx(expect, rel=1e-12)
    assert lp_norm(space, [1.0, 2.0], p) == pytest.approx(expect, rel=1e-12)


def _lpq_by_definition(space, g, p, q):
    """||g||_{p,q} from its definition in 60-digit decimal arithmetic, whose
    exponent range no power here leaves."""
    with decimal.localcontext(decimal.Context(prec=60, Emin=-10**15, Emax=10**15)):
        d = decimal.Decimal
        integrals = [d(0)] * space.n_blocks
        for w, x, j in zip(space.prob.tolist(), np.abs(g).tolist(), space.block_labels):
            integrals[j] += d(w) * d(x) ** d(p)
        integrals = [i for i in integrals if i > 0]
        if math.isinf(q):
            return float(max(integrals) ** (1 / d(p)))
        return float(sum(i ** (d(q) / d(p)) for i in integrals) ** (1 / d(q)))


EXPONENTS_P = (0.1, 0.5, 1.0, 3.0, 1100.0, 5000.0)
EXPONENTS_Q = (0.1, 1.0, 50.0, 1000.0, 1e6, math.inf)


@pytest.mark.parametrize("n_blocks", [1, 2, 3])
def test_lpq_matches_its_definition_across_the_exponent_range(n_blocks):
    # large p underflowed g^p, and large q/p the block integrals' powers, to a norm of 0
    rng = np.random.default_rng(40 + n_blocks)
    space = random_tree_space(rng, depth=2, branching=3, n_blocks=n_blocks)
    g = rng.standard_normal(space.size)
    g[0] = 0.0
    for p in EXPONENTS_P:
        for q in EXPONENTS_Q:
            want = _lpq_by_definition(space, g, p, q)
            assert lpq_norm(space, g, p, q) == pytest.approx(want, rel=1e-13, abs=0), (p, q)


@pytest.mark.parametrize("q", [0.1, 1.0, 1000.0, 1e6, 1e308])
def test_a_one_block_norm_is_its_value_at_q_inf(q):
    # with one block, (I^{q/p})^{1/q} = I^{1/p} for every q; beyond the float
    # range q/p leaves only the maxima, as q = inf does
    rng = np.random.default_rng(44)
    space = random_tree_space(rng, depth=3, branching=2, n_blocks=1)
    g = rng.standard_normal(space.size)
    for p in EXPONENTS_P:
        want = lpq_norm(space, g, p, math.inf)
        assert lpq_norm(space, g, p, q) == pytest.approx(want, rel=1e-13, abs=0), p


def test_lq_aggregate_takes_each_row_alone():
    # a row whose powers leave the normal float range takes the log-space
    # route by itself, so it gets the same bits in any stack; a row with no
    # positive integral (an empty rung's support) is 0 on every route
    rows = np.array([[0.5, 0.25, 0.0], [1e-120, 0.5, 0.5], [0.9, 0.0, 0.1], [1.0, 1.0, 0.0],
                     [0.0, 0.0, 0.0]])
    for p, q in ((1.0, 3.0), (0.5, 1000.0), (0.5, 1e308), (0.05, 1.0), (2.0, math.inf),
                 (1.0, 0.05), (0.05, math.inf)):
        alone = [lq_aggregate(row[None], p, q)[0] for row in rows]
        assert lq_aggregate(rows, p, q).tolist() == alone
        assert alone[-1] == 0.0


def test_lpq_rejects_bad_exponents(dyadic2):
    with pytest.raises(ValueError):
        lpq_norm(dyadic2, np.ones(4), 0.0, 1.0)
    with pytest.raises(ValueError):
        lpq_norm(dyadic2, np.ones(4), math.inf, 1.0)
    with pytest.raises(ValueError):
        lpq_norm(dyadic2, np.ones(4), 1.0, -1.0)


@pytest.mark.parametrize("p, q", [(5e-324, 1.0), (1e-320, 1.0), (1.0, 5e-324),
                                  (5e-324, 5e-324)])
def test_lpq_refuses_subnormal_exponents(dyadic2, p, q):
    # 1 / 5e-324 is beyond the float range: such p once gave NaN, or 0.5 for every g
    name, x = ("p", p) if p < 1.0 else ("q", q)
    with pytest.raises(ValueError, match=f"^{name} = {x!r} is subnormal: below "):
        lpq_norm(dyadic2, np.ones(4), p, q)


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


# p below and above 1, q on both sides of p, and q = inf
REGULARITY_PQ = ((0.25, 0.5), (0.5, 0.25), (1.0, 1.0), (2.0, 1.0), (1.0, math.inf))


@given(small_martingales(max_outcomes=16, random_weights=True, max_blocks=3))
def test_the_regularity_bounds_hold_pointwise_and_in_every_norm(case):
    # With R = max P(parent) / P(child), Cauchy-Schwarz against the mean-zero siblings
    # gives d_n^2 <= (R - 1) E_{n-1}[d_n^2] on each child.  Summed, S(f) <= sqrt(R-1) s(f);
    # S_n <= (S_{n-1}^2 + (R-1) s_n^2)^{1/2} bounds the minimal S-envelope, and
    # f*_n <= f*_{n-1} + sqrt(R-1) s_n the minimal star-envelope
    space, f = case
    root = math.sqrt(regularity_constant(space) - 1.0)
    s, big_s = conditional_quadratic_variation(f), quadratic_variation(f)
    bounds = (
        (hardy_S_norm, big_s, root * s),
        (q_space_norm, minimal_envelope(f, "S").final, np.sqrt(big_s ** 2 + (root * s) ** 2)),
        (p_space_norm, minimal_envelope(f, "star").final, maximal_function(f) + root * s),
    )
    for norm, side, bound in bounds:
        assert np.all(side <= bound * (1 + 1e-12)), norm.__name__
        for p, q in REGULARITY_PQ:
            assert norm(f, p, q) <= lpq_norm(space, bound, p, q) * (1 + 1e-12), (norm, p, q)


@pytest.mark.parametrize("depth", [1, 2, 4])
def test_S_equals_s_on_even_dyadic_splits(depth):
    # R = 2: each child's difference is +-d, so d^2 = E_{n-1}[d^2] at every step
    for space, f in generate(CorpusSpec(generator="dyadic", count=10, seed=depth, depth=depth)):
        assert regularity_constant(space) == 2.0
        s, big_s = conditional_quadratic_variation(f), quadratic_variation(f)
        assert np.all(np.abs(big_s - s) <= 1e-12 * s)


def test_all_five_norms_keys(worked_example):
    _, f = worked_example
    d = all_five_norms(f, 2, 2)
    assert set(d) == {"hardy_s", "hardy_S", "hardy_star", "q_space", "p_space"}
    assert d["hardy_s"] == pytest.approx(np.sqrt(1.5))
    assert all(v >= 0 for v in d.values())


@pytest.mark.parametrize("pq", [(2, 2), (0.5, 1), (1, 0.05)])
def test_all_five_norms_takes_S_once_and_keeps_each_norms_bits(monkeypatch, pq):
    seen = []
    for module in (martingale, norms):
        # raising=False: norms need not read S_n(f) by this name
        monkeypatch.setattr(module, "quadratic_variation_partial",
                            lambda f, orig=quadratic_variation_partial: seen.append(f) or orig(f),
                            raising=False)
    for _, f in generate(CorpusSpec(generator="random-tree", count=4, seed=7, depth=4)):
        seen.clear()
        got = all_five_norms(f, *pq)
        assert len(seen) == 1
        assert repr(got) == repr({"hardy_s": hardy_s_norm(f, *pq), "hardy_S": hardy_S_norm(f, *pq),
                                  "hardy_star": hardy_star_norm(f, *pq),
                                  "q_space": q_space_norm(f, *pq), "p_space": p_space_norm(f, *pq)})
