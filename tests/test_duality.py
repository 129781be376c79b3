import inspect
import math
import tracemalloc
from unittest import mock
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from amalgam import (
    INFINITY,
    AtomTriple,
    Decomposition,
    FilteredSpace,
    SpaceError,
    StoppingTime,
    campanato_norm,
    certify_duality,
    count_stopping_times,
    decompose,
    enumerate_stopping_times,
    from_terminal,
    pairing,
    phi,
    representer,
    reverse_minkowski_check,
    stop,
    verify_atom,
)
from amalgam import duality
from amalgam.atoms import ladder_constant
from amalgam.duality import oscillation
from amalgam.harness import CorpusSpec, generate
from amalgam.martingale import Martingale
from amalgam.norms import _masses, hardy_s_norm, lpq_norm, lq_aggregate
from amalgam.space import (
    ENUMERATION_CAP,
    SLACK,
    TOL,
    _decode_times,
    _enumeration,
    binary_exponent,
    scale_of,
    scaled,
    stopping_time_blocks,
    times_pow2,
)
from amalgam.martingale import (
    _ladder_statistic,
    _threshold_time,
    ladder_window,
    minimal_envelope,
)
from conftest import centred, random_martingale, random_tree_space, small_martingales, small_trees


@pytest.mark.parametrize("p, q", [(-1.0, 1.0), (0.0, 1.0), (math.nan, 1.0), (math.inf, 1.0),
                                  (0.5, 0.0), (0.5, -1.0), (0.5, math.nan)])
def test_exponents_are_checked(dyadic2, p, q):
    g = [1.0, 1.0, -1.0, -1.0]
    with pytest.raises(ValueError, match="must lie in"):
        campanato_norm(dyadic2, g, p, q, mode="heuristic")
    with pytest.raises(ValueError, match="must lie in"):
        phi(dyadic2, ["w1"], p, q)


def test_phi_diagonal(dyadic2):
    # with p = q the weight collapses to P(A)^(1/p - 1)
    for p in (0.5, 1.0, 2.0):
        assert phi(dyadic2, ["w1", "w2"], p, p) == pytest.approx(0.5 ** (1 / p - 1))
        assert phi(dyadic2, ["w1"], p, p) == pytest.approx(0.25 ** (1 / p - 1))
    assert phi(dyadic2, ["w1", "w2", "w3", "w4"], 1, 1) == pytest.approx(1.0)


def test_phi_off_diagonal(dyadic2):
    # {w1} meets only the first block, whose integral is 1/4
    assert phi(dyadic2, ["w1"], 1.0, 2.0) == pytest.approx(1.0)
    with pytest.raises(SpaceError):
        phi(dyadic2, [], 1.0, 1.0)
    with pytest.raises(SpaceError):
        phi(dyadic2, ["nope"], 1.0, 1.0)
    with pytest.raises(SpaceError, match=r"^unknown outcome \['w1'\]$"):
        phi(dyadic2, [["w1"]], 1.0, 1.0)  # unhashable, so no outcome


@given(small_trees(random_weights=True, max_blocks=3), st.data(),
       st.sampled_from([0.05, 0.5, 1.0, 2.5]), st.sampled_from([0.05, 0.7, 1.0, 3.0, math.inf]))
def test_phi_is_the_indicator_norm_over_the_mass(space, data, p, q):
    subset = data.draw(st.lists(st.sampled_from(space.outcomes), min_size=1, unique=True))
    mask = np.isin(np.array(space.outcomes), subset)
    pa = float(space.prob[mask].sum())
    got = phi(space, subset, p, q)
    assert got == pytest.approx(lpq_norm(space, mask.astype(float), p, q) / pa)
    # the block masses of A aggregated in l_q, as phi once computed it
    total, masses = _masses(space, np.zeros(space.size, dtype=np.int64), 1, space.prob * mask)
    assert got == pytest.approx(float(lq_aggregate(masses, p, q)[0] / total[0]))


def _two_filtrations():
    """Spaces a and b on one outcome set, with one probability vector and one block
    partition, and a stopping time of b that is none of a: {nu = 1} = {d}."""
    outcomes = list("abcdef")
    prob = np.random.default_rng(1).dirichlet(np.ones(6))
    blocks = [list("abd"), list("cef")]
    singletons = [[o] for o in outcomes]
    a = FilteredSpace(outcomes, prob, [[outcomes], [list("abc"), list("def")],
                                       [list("ab"), ["c"], ["d"], list("ef")], singletons],
                      blocks)
    b = FilteredSpace(outcomes, prob, [[outcomes]] + [singletons] * 3, blocks)
    return a, StoppingTime(b, [3, INFINITY, INFINITY, 1, INFINITY, INFINITY])


@pytest.mark.parametrize("entry", ["campanato_norm", "oscillation", "verify_atom"])
def test_a_stopping_time_of_another_space_is_refused(entry):
    a, nu = _two_filtrations()
    g = centred(a, np.array([0.46, 0.25, 0.18, -0.09, 0.43, -0.85]))
    exact = campanato_norm(a, g, 0.3, 1, mode="exact")
    assert exact.mode == "exact-enumeration" and exact.norm_value == pytest.approx(17.2559)
    with pytest.raises(SpaceError, match="^stopping time lives on a different space$"):
        if entry == "campanato_norm":  # scored, nu gave 21.04 > the exact supremum
            campanato_norm(a, g, 0.3, 1, mode="exact", extra_candidates=[nu])
        elif entry == "oscillation":
            oscillation(a, g, nu, 0.3, 1)
        else:
            d = decompose(from_terminal(a, g), 1, 1)
            t = d.triples[0]
            t.nu = StoppingTime(nu.space, t.nu.times)
            verify_atom(d, t)


def test_campanato_two_point_exact(coin):
    space, _ = coin
    res = campanato_norm(space, [1.0, -1.0], 1.0, 1.0, mode="exact")
    assert res.mode == "exact-enumeration"
    assert res.norm_value == pytest.approx(1.0)
    assert list(res.attaining_nu.times) == [0, 0]


def test_campanato_skips_a_candidate_with_an_empty_support(worked_example):
    space, _ = worked_example
    g = [1.0, 1.0, 1.0, -3.0]
    never = StoppingTime(space, [INFINITY] * 4)
    for mode in ("exact", "heuristic"):
        base = campanato_norm(space, g, 0.5, 1.0, mode=mode)
        got = campanato_norm(space, g, 0.5, 1.0, mode=mode, extra_candidates=[never])
        assert (got.norm_value, got.candidates_examined) == (base.norm_value,
                                                             base.candidates_examined)
        assert got.attaining_nu.times.tolist() == base.attaining_nu.times.tolist()


def test_campanato_scores_extras_given_as_a_generator():
    # the space check once consumed a generator, so its candidates went unscored
    (space, f), = generate(CorpusSpec(generator="dyadic", depth=3, seed=2))
    nus = [t.nu for t in decompose(f, 0.5, 1.0).triples]
    want = campanato_norm(space, f.terminal, 0.5, 1.0, mode="heuristic", extra_candidates=nus)
    assert want.candidates_examined == 19 and len(want.extra_l2) == 3
    got = campanato_norm(space, f.terminal, 0.5, 1.0, mode="heuristic",
                         extra_candidates=(nu for nu in nus))
    assert got.candidates_examined == want.candidates_examined
    assert got.extra_l2.tobytes() == want.extra_l2.tobytes()
    assert got.norm_value == want.norm_value


def test_every_enumeration_cap_defaults_to_the_one_constant():
    for fn in (campanato_norm, certify_duality, stopping_time_blocks, enumerate_stopping_times):
        assert inspect.signature(fn).parameters["cap"].default is ENUMERATION_CAP


# stopping-time counts above this are skipped: they would make enumeration slow
FEW_THOUSAND = 3000


@st.composite
def enumerable_cases(draw):
    """A tree of at most 16 outcomes and 1-3 blocks with at most FEW_THOUSAND
    stopping times, and a zero-mean g on it."""
    space = draw(small_trees(max_outcomes=16, random_weights=True, max_blocks=3))
    assume(count_stopping_times(space) <= FEW_THOUSAND)
    g = centred(space, np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=space.size,
                                              max_size=space.size))))
    return space, g


@given(enumerable_cases())
def test_campanato_heuristic_is_lower_bound(case):
    # With J blocks, the heuristic is exact when p = q <= 1, or J = 1 and p <= 1: then
    # ||1_B||_{p,q} = P(B)^{1/p}, and by the mediant inequality a cell first-entry
    # time attains the supremum
    space, g = case
    for p, q in ((0.25, 0.25), (0.5, 0.5), (1.0, 1.0), (0.25, 0.5), (0.5, 1.0), (0.5, 2.0),
                 (1.0, math.inf), (1.5, 1.5), (2.0, 1.0)):
        exact = campanato_norm(space, g, p, q, mode="exact", cap=FEW_THOUSAND)
        heur = campanato_norm(space, g, p, q, mode="heuristic")
        assert exact.mode == "exact-enumeration"
        assert heur.mode == "heuristic-family"
        # the exact family holds every heuristic candidate, scored to the same bits
        assert heur.norm_value <= exact.norm_value
        if p <= 1 and (p == q or space.n_blocks == 1):
            # the cells sum A and P(B) in another order than the winner's own row
            assert exact.norm_value <= heur.norm_value * (1 + 1e-12)


@given(enumerable_cases())
def test_the_extremal_atom_attains_the_campanato_value(case):
    # at the winner nu with B = {nu < inf}, a = (g - g^nu) / c with
    # c = ||g - g^nu||_2 ||1_B||_{p,q} / P(B)^{1/2} is a weighted (p, q, 2) s-atom,
    # and E[a g] = E[(g - g^nu)^2] / c is the quotient of nu
    space, g = case
    assume(np.any(g))  # g = 0 scores 0 at every candidate, and no winner is named
    small, e = scaled(g)  # the atom is the same for g * 2^-e, and E[a g] scales by 2^e
    gm = from_terminal(space, small)
    for p, q in ((0.25, 0.5), (0.5, 1.0), (0.75, 0.75), (1.0, 1.0)):
        d = Decomposition(space, "s", "weighted", p, q, [], 0.0)
        for mode in ("exact", "heuristic"):
            res = campanato_norm(space, g, p, q, mode=mode, cap=FEW_THOUSAND)
            nu = res.attaining_nu
            b = nu.support.astype(float)
            diff = small - stop(gm, nu).terminal
            c = (math.sqrt(float(space.prob @ diff ** 2)) * lpq_norm(space, b, p, q)
                 / math.sqrt(float(space.prob @ b)))
            atom = AtomTriple(0, 1.0, diff / c, nu)
            [report] = verify_atom(d, atom, [2.0])
            assert report.passed, (mode, p, q, report)
            attained = float(times_pow2(float(space.prob @ (atom.terminal * small)), e))
            assert abs(attained - res.norm_value) <= SLACK * res.norm_value, (mode, p, q)


# the chain's three links hold for every 0 < p, q <= 1, in either order; the
# Campanato space is proved to be the dual only where p <= q
CHAIN_PAIRS = ((0.25, 0.5), (0.5, 1.0), (0.75, 0.75), (1.0, 1.0), (0.3, 0.3),
               (1.0, 0.5), (0.8, 0.3), (0.5, 0.25))
DUAL_PAIRS = tuple((p, q) for p, q in CHAIN_PAIRS if p <= q)


@given(enumerable_cases(), st.data())
def test_the_duality_inequality_holds_at_the_exact_campanato_value(case, data):
    # |E[f g]| <= C(1) ||s(f)||_{p,q} ||g||_Camp, with C(1) = 4 and the value by enumeration
    space, g = case
    x = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=space.size,
                                    max_size=space.size)))
    f = from_terminal(space, centred(space, x))
    for p, q in CHAIN_PAIRS:
        camp = campanato_norm(space, g, p, q, mode="exact", cap=FEW_THOUSAND)
        assert camp.mode == "exact-enumeration"
        bound = ladder_constant(1.0) * hardy_s_norm(f, p, q) * camp.norm_value
        assert abs(pairing(f, g)) <= bound * (1 + 1e-12), (p, q)


# the stopping times scored per tree, spread evenly over the enumeration
SAMPLED_TIMES = 64


@given(enumerable_cases())
def test_each_stopped_difference_pairs_with_g_to_its_oscillation(case):
    # f_nu = g - g^nu vanishes off B = {nu < inf} and is orthogonal to g^nu, so
    # E[f_nu g] = A(nu) = E[(g - g^nu)^2 1_B].  Then L(nu) = A(nu) / ||s(f_nu)||_{p,q}
    # bounds the dual norm of g from below, and the duality inequality at f_nu bounds
    # it by C(1) ||g||_Camp
    space, g = case
    gm = from_terminal(space, g)
    camps = {pq: campanato_norm(space, g, *pq, mode="exact", cap=FEW_THOUSAND).norm_value
             for pq in DUAL_PAIRS}
    nus = list(enumerate_stopping_times(space, cap=FEW_THOUSAND))
    for nu in nus[::math.ceil(len(nus) / SAMPLED_TIMES)]:
        # a difference of two martingales of the same space is one
        f_nu = Martingale(space, gm.levels - stop(gm, nu).levels, validate=False)
        diff, on = f_nu.terminal, nu.support
        assert not np.any(diff[~on])
        # where g is constant on B, g^nu = g up to rounding: f_nu = 0, and its noise pairs
        # with g at g's scale, not at its own
        if not scale_of(diff) > TOL * scale_of(g):
            continue
        a = float(space.prob[on] @ diff[on] ** 2)
        # relative to the terms of E[f_nu g]: E[f_nu g^nu] = 0 cancels terms of that size
        assert abs(pairing(f_nu, g) - a) <= SLACK * float(space.prob @ np.abs(diff * g))
        for (p, q), camp in camps.items():
            assert a / hardy_s_norm(f_nu, p, q) <= ladder_constant(1.0) * camp * (1 + 1e-12)


def test_campanato_overflow_falls_back(coin):
    space, _ = coin
    res = campanato_norm(space, [1.0, -1.0], 1.0, 1.0, mode="exact", cap=1)
    assert res.mode == "heuristic-family"
    assert res.norm_value > 0.0


def test_campanato_is_exact_at_huge_and_tiny_scales(coin):
    # squares of 1e200 overflow and squares of 1e-200 underflow unscaled
    space, f = coin
    base = certify_duality(f, [1.0, -1.0], 1.0, 1.0)
    for c in (1e200, 1e-200):
        for mode in ("exact", "heuristic"):
            one = campanato_norm(space, [1.0, -1.0], 1.0, 1.0, mode=mode)
            got = campanato_norm(space, [c, -c], 1.0, 1.0, mode=mode)
            assert got.norm_value == c * one.norm_value
            assert got.attaining_nu.times.tolist() == one.attaining_nu.times.tolist()
        cert = certify_duality(f, [c, -c], 1.0, 1.0)
        assert cert.chain_ok
        assert cert.atomwise_bound == c * base.atomwise_bound
        assert cert.campanato.norm_value == c * base.campanato.norm_value


def test_a_candidate_with_no_oscillation_scores_zero_where_its_phi_underflows():
    # on a last-level cell g - g_N = 0, so A = 0, and at p = q = 0.002 phi(B) of a
    # mass of 1/8 underflows to 0: the quotient was 0/0
    (space, f), = generate(CorpusSpec(generator="dyadic", depth=3, seed=2))
    assert lq_aggregate(np.array([[0.125]]), 0.002, 0.002)[0] == 0.0
    cell = StoppingTime(space, [3] + [INFINITY] * 7)
    assert oscillation(space, f.terminal, cell, 0.002, 0.002) == 0.0
    for mode in ("exact", "heuristic"):
        res = campanato_norm(space, f.terminal, 0.002, 0.002, mode=mode)
        assert res.norm_value == 2.716815215754641e+300
        assert res.attaining_nu.times.tolist() == [INFINITY] * 2 + [2, 2] + [INFINITY] * 4
        assert certify_duality(f, f.terminal, 0.002, 0.002, mode=mode).chain_ok


def _level1_cells_space():
    """Masses (2, 3, 4, 4)/13, level-1 cells {a}, {b, c}, {d}, singletons at level 2."""
    o = ["a", "b", "c", "d"]
    return FilteredSpace(o, np.array([2.0, 3.0, 4.0, 4.0]) / 13,
                         [[o], [["a"], ["b", "c"], ["d"]], [[x] for x in o]], [o])


@pytest.mark.parametrize("mode", ["exact", "heuristic"])
@pytest.mark.parametrize("p", [0.05, 0.01, 0.002])
@pytest.mark.parametrize("x, want", [
    ([0.5, -0.2, -0.2, 0.0], 0.24300875382971254),
    ([0.5, 1 / 3, 1 / 3, 0.0], 0.18040060614705497),
])
def test_a_g_constant_on_the_cells_of_its_candidates_scores_no_rounding_noise(x, want, p, mode):
    # g is constant on every level-1 cell, so only nu = 0 oscillates; E_n of g
    # by cell sums alone read 3.5e-18 off g(d) at n = 1, which the tiny phi({d})
    # at small p made 1.65e33 and 1.67e64 at p = 0.01, 9.33e237 and inf at 0.002
    space = _level1_cells_space()
    g = np.array(x) - space.prob @ np.array(x)
    res = campanato_norm(space, g, p, p, mode=mode)
    assert res.norm_value == want
    assert res.attaining_nu.times.tolist() == [0] * 4


def _measurable_at_level_1(space, values):
    """A zero-mean g constant on every level-1 cell, one drawn value per cell."""
    return centred(space, np.asarray(values)[space.level_labels[1]])


@given(small_trees(max_outcomes=16, random_weights=True, max_blocks=3), st.data())
def test_a_g_measurable_at_level_1_scores_its_l2_norm_over_the_indicator_norm(space, data):
    # only nu = 0 oscillates, with A = ||g||_2^2 and B = Omega, at every p and q
    assume(space.depth >= 1)
    cells = space.level_sizes[1]
    g = _measurable_at_level_1(space, data.draw(st.lists(
        st.floats(-10.0, 10.0), min_size=cells, max_size=cells)))
    p, q = data.draw(st.sampled_from([(1.0, 1.0), (0.5, 0.5), (0.05, 0.05), (0.01, 0.01),
                                      (0.002, 0.002), (0.002, 0.01), (0.01, 1.0), (0.05, 0.5),
                                      (0.5, 1.0), (0.01, math.inf)]))
    small, e = scaled(g)  # ||g||_2 at g's own power of two: a tiny g's square underflows,
    # and g * 2^-e has a mean where a subnormal one rounded to 0: g = (0, 5e-324)
    # on masses (1/2, 1/2) has 1/2, and A = 1/4 scales back to 0, not to 5e-324
    small = small - float(space.prob @ small)
    want = math.ldexp(math.sqrt(float(space.prob @ small ** 2)), e) / lpq_norm(
        space, np.ones(space.size), p, q)
    for mode in ("exact", "heuristic"):
        assert campanato_norm(space, g, p, q, mode=mode).norm_value == pytest.approx(
            want, rel=1e-12, abs=0)


def test_the_atomwise_bound_takes_each_atom_norm_at_its_own_scale():
    # at p = 0.002 a rung of mass 1/4 has lambda near 2^-1000, so its atom's
    # square leaves the float range, while lambda * ||a||_2 does not
    (space, f), = generate(CorpusSpec(generator="dyadic", depth=3, seed=78,
                                      block_policy="random-partition", block_param=1))
    d = decompose(f, 0.002, 0.002)
    assert max(np.max(np.abs(t.terminal)) for t in d.triples) > 1e155
    cert = certify_duality(f, f.terminal, 0.002, 0.002)
    assert cert.chain_ok and math.isfinite(cert.atomwise_bound)
    rungs = [math.sqrt(float(space.prob @ (t.lam * t.terminal) ** 2)) for t in d.triples]
    assert cert.atomwise_bound == pytest.approx(
        sum(r * float(osc) for r, osc in zip(rungs, cert.campanato.extra_l2)), rel=1e-12)


def test_campanato_homogeneous(coin):
    space, _ = coin
    base = campanato_norm(space, [1.0, -1.0], 0.5, 1.0, mode="exact").norm_value
    scaled = campanato_norm(space, [7.0, -7.0], 0.5, 1.0, mode="exact").norm_value
    assert scaled == pytest.approx(7.0 * base)


def test_campanato_rejects_bad_mode_and_mean(coin):
    space, _ = coin
    with pytest.raises(ValueError):
        campanato_norm(space, [1.0, -1.0], 1.0, 1.0, mode="bogus")
    with pytest.raises(SpaceError):
        campanato_norm(space, [1.0, 1.0], 1.0, 1.0)


def test_pairing_worked_example(worked_example):
    space, f = worked_example
    assert pairing(f, [1.0, 1.0, 1.0, -3.0]) == pytest.approx(1.0)
    assert pairing(f, np.ones(4)) == pytest.approx(0.0)  # zero mean terminal


def test_pairing_of_products_beyond_the_float_top():
    # every |f_N g| passes the float top, while E[f_N g] = (5 + 3 - 4 - 2) 2^1024 / 4 does not
    names = ["a", "b", "c", "d"]
    space = FilteredSpace(names, [0.25] * 4, [[names], [[w] for w in names]], [names])
    g = np.array([1.0, -1.0, 1.0, -1.0]) * 2.0 ** 513
    from_terminal(space, g)  # a g the duality call accepts
    f = from_terminal(space, np.array([5.0, -3.0, -4.0, 2.0]) * 2.0 ** 511)
    assert pairing(f, g) == 2.0 ** 1023


def test_certify_duality_worked_example_range():
    rng = np.random.default_rng(41)
    for _ in range(10):
        space = random_tree_space(rng, depth=3, branching=2, n_blocks=2)
        f = random_martingale(rng, space)
        g = rng.standard_normal(space.size)
        g -= float(space.prob @ g)
        for p, q in ((0.5, 0.5), (0.5, 1.0), (0.75, 1.0), (1.0, 1.0)):
            cert = certify_duality(f, g, p, q)
            assert cert.chain_ok, (p, q, cert)
            assert cert.first_gap >= -1e-9
            assert cert.second_gap >= -1e-9


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-9])
def test_certify_duality_fails_a_short_budget_at_every_scale(monkeypatch, scale):
    # a chain constant 1000 times too small leaves the atom-wise bound 23 times
    # over budget; a slack floored at 1 once let that pass where f and g are small
    (space, f), = generate(CorpusSpec(generator="random-tree", seed=5, depth=3, max_branching=3,
                                      block_policy="random-partition", block_param=2))
    g = np.random.default_rng(0).standard_normal(space.size)
    g -= float(space.prob @ g)
    monkeypatch.setattr(duality, "ladder_constant", lambda eta: ladder_constant(eta) / 1000)
    cert = certify_duality(Martingale(space, f.levels * scale), g * scale, 0.5, 1.0)
    assert cert.atomwise_bound > 20 * cert.budget
    assert not cert.chain_ok


def test_certify_duality_exact_mode_small_space(coin):
    space, f = coin
    cert = certify_duality(f, [1.0, -1.0], 1.0, 1.0, mode="exact")
    assert cert.chain_ok
    assert cert.campanato.mode == "exact-enumeration"
    # E[f1 g] = 1 with ||f||_{H^s} = 1 and Campanato norm 1
    assert cert.pairing_abs == pytest.approx(1.0)
    assert cert.pairing == pairing(f, [1.0, -1.0])  # the signed value, computed once
    flipped = certify_duality(f, [-1.0, 1.0], 1.0, 1.0, mode="exact")
    assert (flipped.pairing, flipped.pairing_abs) == (-cert.pairing, cert.pairing_abs)
    assert cert.hardy_norm == pytest.approx(1.0)
    assert cert.campanato.norm_value == pytest.approx(1.0)


def _certify_with_rungs_apart(f, g, p, q, mode, cap):
    """(atom-wise bound, Campanato value, attaining times, route, candidates
    examined) as certify_duality found them when it summed f's rungs for the
    bound and then scored them in a stack of their own: an oracle."""
    space = f.space
    gm = from_terminal(space, g)
    d = decompose(f, p, q, flavor="s", defn="simple")
    dev, e = duality._deviations(space, g)
    ladder = np.array([t.nu.times for t in d.triples], dtype=np.int64).reshape(-1, space.size)
    atomwise = 0.0
    for t, a_k in zip(d.triples, duality._row_sums(space, dev, ladder)[:, 0]):
        a_l2 = math.sqrt(float(space.prob @ t.terminal ** 2))
        atomwise += t.lam * a_l2 * float(times_pow2(math.sqrt(a_k), e))
    sup = duality._Supremum(space, dev, p, q)
    route = "heuristic-family"
    if mode == "exact" and count_stopping_times(space) <= cap:
        for block in stopping_time_blocks(space, cap):
            sup.add_stack(block)
        route = "exact-enumeration"
    if route == "heuristic-family":
        sup.add_cells()
        sup.add_stack(duality._ladder_rows(space, Martingale(space, np.ldexp(gm.levels, -e),
                                                             validate=False)))
    sup.add_stack(ladder)
    return atomwise, float(times_pow2(sup.value, e)), sup.times, route, sup.examined


@settings(max_examples=100)
@given(small_martingales(max_outcomes=12, random_weights=True, max_blocks=3), st.data())
def test_certify_duality_scores_each_rung_once_as_it_scored_them_apart(case, data):
    space, f = case
    g = centred(space, np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=space.size,
                                                   max_size=space.size))))
    p, q = data.draw(st.sampled_from([(0.5, 1.0), (0.75, 0.75), (0.25, 0.5), (0.05, 0.5),
                                      (1.0, 1.0)]))
    for mode in ("heuristic", "exact"):
        cert = certify_duality(f, g, p, q, mode=mode, cap=ORACLE_CAP)
        atomwise, value, times, route, examined = _certify_with_rungs_apart(
            f, g, p, q, mode, ORACLE_CAP)
        camp = cert.campanato
        assert (cert.atomwise_bound, camp.norm_value, camp.mode, camp.candidates_examined) == (
            atomwise, value, route, examined)
        if times is None:
            assert camp.attaining_nu is None
        else:
            assert camp.attaining_nu.times.tolist() == times.tolist()


def test_certify_duality_rejects_out_of_range(worked_example):
    _, f = worked_example
    g = [1.0, 1.0, 1.0, -3.0]
    with pytest.raises(ValueError):
        certify_duality(f, g, 2.0, 2.0)
    with pytest.raises(ValueError):
        certify_duality(f, g, 1.0, 0.5)  # needs p <= q


def test_representer_recovers_g():
    rng = np.random.default_rng(42)
    for _ in range(10):
        space = random_tree_space(rng, depth=2, branching=3)
        g = rng.standard_normal(space.size)
        g -= float(space.prob @ g)
        basis = np.eye(space.size)
        pairs = [(x, float(space.prob @ (x * g))) for x in basis]
        got = representer(space, pairs)
        assert np.max(np.abs(got - g)) < 1e-9


def test_representer_rejects_rank_deficient_and_inconsistent(coin):
    space, _ = coin
    with pytest.raises(SpaceError):
        representer(space, [])  # only the mean row: rank 1 < 2
    # contradictory values for the same functional
    with pytest.raises(SpaceError):
        representer(space, [([1.0, 0.0], 1.0), ([1.0, 0.0], 2.0),
                           ([0.0, 1.0], 0.0)])


def test_representer_verdicts_do_not_depend_on_the_scale_of_its_pairs():
    # scaling every pair (x, v) by 2^k gives the same system: g keeps every
    # bit, and a pair that contradicts another is refused at every k
    rng = np.random.default_rng(44)
    for _ in range(5):
        space = random_tree_space(rng, depth=2, branching=4)
        g = rng.standard_normal(space.size)
        g -= float(space.prob @ g)
        pairs = [(x, float(space.prob @ (x * g))) for x in np.eye(space.size)]
        want = representer(space, pairs)
        for k in range(-60, 61):
            c = 2.0 ** k
            scaled_pairs = [(x * c, v * c) for x, v in pairs]
            assert np.array_equal(representer(space, scaled_pairs), want), k
            with pytest.raises(SpaceError, match="inconsistent"):
                representer(space, scaled_pairs + [(pairs[0][0] * c, (pairs[0][1] + 1) * c)])


@pytest.mark.parametrize("k", [0, -20, -30, -40, -600, 600])
def test_representer_refuses_a_contradiction_when_only_the_values_are_scaled(dyadic2, k):
    # x fixed and every value times 2^k: a pair doubling the first value is
    # refused at every k, as the residual is weighed against max|value|
    g = np.array([1.0, -2.0, 3.0, -2.0])
    g -= float(dyadic2.prob @ g)
    pairs = [(x, float(dyadic2.prob @ (x * g))) for x in np.eye(4)]
    want = np.ldexp(representer(dyadic2, pairs), k)
    pairs = [(x, math.ldexp(v, k)) for x, v in pairs]
    assert np.array_equal(representer(dyadic2, pairs), want)
    with pytest.raises(SpaceError, match="inconsistent"):
        representer(dyadic2, pairs + [(pairs[0][0], 2 * pairs[0][1])])


def test_reverse_minkowski_holds():
    rng = np.random.default_rng(43)
    for _ in range(20):
        space = random_tree_space(rng, depth=2, branching=3, n_blocks=3)
        fs = [rng.standard_normal(space.size) for _ in range(int(rng.integers(2, 5)))]
        for p, q in ((0.5, 0.5), (0.3, 1.0), (0.9, 0.7)):
            rep = reverse_minkowski_check(space, fs, p, q)
            assert rep.ok
            assert rep.slack >= -1e-12


def test_reverse_minkowski_equality_on_disjoint_supports():
    space = FilteredSpace(
        ["a", "b"], [0.5, 0.5], [[["a", "b"]], [["a"], ["b"]]], [["a", "b"]]
    )
    rep = reverse_minkowski_check(space, [[1.0, 0.0], [0.0, 1.0]], 0.5, 0.5)
    assert rep.ok
    # p < 1 makes the disjoint union strictly cheaper than the sum of parts
    assert rep.rhs > rep.lhs


def test_reverse_minkowski_rejects_bad_exponents(dyadic2):
    fs = [np.ones(4)]
    with pytest.raises(ValueError):
        reverse_minkowski_check(dyadic2, fs, 1.0, 1.0)
    with pytest.raises(ValueError):
        reverse_minkowski_check(dyadic2, fs, 0.5, 2.0)
    with pytest.raises(ValueError):
        reverse_minkowski_check(dyadic2, [], 0.5, 0.5)


# --- batched Campanato scoring against a per-candidate oracle ---------------

#: enumeration cap of the oracle test; larger spaces take the heuristic route
ORACLE_CAP = 1500


def _per_cell_family(space, gm):
    """The heuristic family as one StoppingTime per candidate, deduplicated:
    the zero time, the ladder rungs, then one first-entry time per cell."""
    cands = [StoppingTime(space, np.zeros(space.size, dtype=np.int64), validate=False)]
    stats = [_ladder_statistic(gm, "s")]
    stats += [minimal_envelope(gm, flavor).levels for flavor in ("S", "star")]
    for stat in stats:
        window = ladder_window(stat)
        if window is not None:
            cands += [_threshold_time(space, stat, 2.0 ** k)
                      for k in range(window[0], window[1] + 1)]
    for n in range(space.depth + 1):
        for c in range(space.level_sizes[n]):
            times = np.where(space.level_labels[n] == c, n, INFINITY)
            cands.append(StoppingTime(space, times, validate=False))
    seen = set()
    return [nu for nu in cands
            if not (nu.times.tobytes() in seen or seen.add(nu.times.tobytes()))]


def _a_by_definition(space, g, nu):
    # (A, e): A = E[(g - g_nu)^2 1_B] of g * 2^-e in exact rationals, rounded
    # once, with g_nu = E_nu[g] by its definition; the quotient is homogeneous
    # in g, so a value taken of g * 2^-e is scaled back by 2^e, and tiny and
    # huge g neither underflow nor overflow
    e = binary_exponent(float(np.max(np.abs(g))))
    on = nu.support
    prob = [Fraction(x) for x in space.prob.tolist()]
    small = [Fraction(x) for x in np.ldexp(g, -e).tolist()]
    a = Fraction(0)
    for i in np.flatnonzero(on).tolist():
        cell = space.level_labels[nu.times[i]]
        members = np.flatnonzero(cell == cell[i]).tolist()
        mean = sum(prob[j] * small[j] for j in members) / sum(prob[j] for j in members)
        a += prob[i] * (small[i] - mean) ** 2
    return float(a), e


def _quotient_by_definition(space, g, nu, p, q):
    a, e = _a_by_definition(space, g, nu)
    on = nu.support
    pb = float(space.prob[on].sum())
    masses = [float(space.prob[on & (space.block_labels == j)].sum())
              for j in range(space.n_blocks)]
    masses = [m for m in masses if m > 0.0]
    if math.isinf(q):
        norm = max(masses) ** (1.0 / p)
    else:
        norm = sum(m ** (q / p) for m in masses) ** (1.0 / q)
    return math.ldexp(math.sqrt(a / pb) / (norm / pb), e)


def _per_candidate_sup(space, g, candidates, p, q, definition=True):
    """One oscillation call per candidate, folded as the scorer documents, on
    g * 2^-e: the scorer's own values, before it scales its winner back by
    2^e, so two values that meet only beyond the float range stay apart.

    Returns the value scaled back, the winner, the count examined and each
    candidate's sqrt(A) scaled back.  With ``definition``, each value is
    checked against _quotient_by_definition.  The sqrt(A) are the row path's
    for one candidate, so comparing them is a regression check that the
    exact route scores its extras there, bit for bit, and no oracle:
    _check_extra_l2_by_definition is one.
    """
    small, e = scaled(g)
    dev, _ = duality._deviations(space, small)
    best, best_nu, examined, l2 = 0.0, None, 0, []
    for nu in candidates:
        l2.append(times_pow2(math.sqrt(duality._row_sums(space, dev, nu.times[None])[0, 0]), e))
        val = oscillation(space, small, nu, p, q)
        if val is None:
            continue
        examined += 1
        if definition:
            assert times_pow2(val, e) == pytest.approx(
                _quotient_by_definition(space, g, nu, p, q), rel=1e-12, abs=0)
        if val > best or (best_nu is not None and val == best
                          and tuple(nu.times) < tuple(best_nu.times)):
            best, best_nu = val, nu
    return float(times_pow2(best, e)), best_nu, examined, np.array(l2)


_positive = st.floats(0.1, 3.0)
_tiny = st.floats(0.03, 0.0999)


@st.composite
def campanato_cases(draw):
    """A tree of at most 12 outcomes and 1-3 blocks, a zero-mean g, (p, q), and
    whether the by-definition oracle takes part.

    g is a drawn terminal, one constant on the level-1 cells, whose stopping
    times tie, one in {-1, 0, 1}, or 0; the first three are times 1, 2^600
    or 2^-600.  (p, q) is from one of the three aggregation branches (q = inf,
    min(p, q) below the log-space cutoff, and the direct power chain), where
    the by-definition oracle takes part, or p is 0.002, 0.05 or 2 with q
    below p or inf, where phi(B) and the quotients leave the float range.
    """
    space = draw(small_trees(max_outcomes=12, random_weights=True, max_blocks=3))
    kind = draw(st.sampled_from(["drawn", "level-1", "ternary", "zero"]))
    if kind == "level-1":
        level = space.level_labels[min(1, space.depth)]
        cells = draw(st.lists(st.floats(-10.0, 10.0), min_size=int(level.max()) + 1,
                              max_size=int(level.max()) + 1))
        x = np.array(cells)[level]
    else:
        x = np.array(draw(st.lists(
            st.floats(-10.0, 10.0) if kind == "drawn" else st.sampled_from([-1.0, 0.0, 1.0]),
            min_size=space.size, max_size=space.size)))
    g = centred(space, x * (kind != "zero")) * 2.0 ** draw(st.sampled_from([0, 600, -600]))
    assume(kind == "zero" or np.any(g))
    branch = draw(st.sampled_from(["inf", "log", "direct", "far"]))
    if branch == "inf":
        p, q = draw(_positive), math.inf
    elif branch == "log":
        p, q = draw(st.sampled_from([(_tiny, _positive), (_positive, _tiny), (_tiny, _tiny)]))
        p, q = draw(p), draw(q)
    elif branch == "direct":
        p, q = draw(_positive), draw(_positive)
    else:
        p = draw(st.sampled_from([0.002, 0.05, 2.0]))
        q = draw(st.sampled_from([p / 2, p / 10, math.inf]))
    return space, g, p, q, branch != "far"


def _check_extra_l2_by_definition(space, g, extra, got):
    # each sqrt(A) within 1e-12 of its exact value, or one subnormal step of it
    assert len(got.extra_l2) == len(extra)
    for nu, l2 in zip(extra, got.extra_l2.tolist()):
        a, e = _a_by_definition(space, g, nu)
        assert l2 == pytest.approx(math.ldexp(math.sqrt(a), e), rel=1e-12, abs=2.0 ** -1074)


def _same_result(got, value, nu, examined):
    assert (got.norm_value, got.candidates_examined) == (value, examined)
    if nu is None:
        assert got.attaining_nu is None
    else:
        assert got.attaining_nu.times.tolist() == nu.times.tolist()


#: the exact route's _BLOCK_ELEMS: as shipped, where most trees here get one
#: table, and 64, where only the smallest subtrees get a table and the rest
#: are decoded
EXACT_BLOCKS = (duality._BLOCK_ELEMS, 64)


@given(campanato_cases())
def test_batched_campanato_matches_per_candidate_oracle(case):
    # the exact route equals the oracle bit for bit at each of EXACT_BLOCKS
    space, g, p, q, definition = case
    gm = from_terminal(space, g)
    extras = [t.nu for t in decompose(gm, 0.5, 1.0).triples]
    extras += extras[:1]  # extra candidates are scored as given, repeats too
    exact = count_stopping_times(space) <= ORACLE_CAP
    values = {}
    for mode in ("exact", "heuristic"):
        enumerate_all = mode == "exact" and exact
        family = (list(enumerate_stopping_times(space)) if enumerate_all
                  else _per_cell_family(space, gm))
        for extra in ([], extras):
            best, best_nu, examined, l2 = _per_candidate_sup(space, g, family + extra, p, q,
                                                             definition)
            for block in EXACT_BLOCKS[:2 if enumerate_all else 1]:
                with mock.patch.object(duality, "_BLOCK_ELEMS", block):
                    got = campanato_norm(space, g, p, q, mode=mode, cap=ORACLE_CAP,
                                         extra_candidates=extra)
                assert got.mode == ("exact-enumeration" if enumerate_all else "heuristic-family")
                if enumerate_all:
                    _same_result(got, best, best_nu, examined)
                    assert got.extra_l2.tobytes() == l2[len(family):].tobytes()
                    _check_extra_l2_by_definition(space, g, extra, got)
                else:
                    assert got.norm_value == pytest.approx(best, rel=1e-12)
                    _same_result(got, got.norm_value, best_nu, examined)
            values[mode, len(extra)] = got.norm_value
    if exact:  # the heuristic value is a lower bound, bit for bit
        assert values["heuristic", 0] <= values["exact", 0]
        assert values["heuristic", len(extras)] <= values["exact", len(extras)]


def _one_outcome_and_depth_0_spaces():
    names = ["a", "b", "c"]
    return (FilteredSpace(["o"], [1.0], [[["o"]]] * 4, [["o"]]),
            FilteredSpace(names, [0.25, 0.25, 0.5], [[names]], [["a", "c"], ["b"]]))


@pytest.mark.parametrize("block", EXACT_BLOCKS)
def test_the_exact_route_scores_a_one_outcome_and_a_depth_0_space(block):
    # 5 times on a chain of one outcome, where g = 0 attains nothing, and 2 on depth 0
    one, flat = _one_outcome_and_depth_0_spaces()
    with mock.patch.object(duality, "_BLOCK_ELEMS", block):
        for space, g, count in ((one, [0.0], 5), (flat, [1.0, -3.0, 1.0], 2)):
            assert count_stopping_times(space) == count
            got = campanato_norm(space, g, 0.5, 1.0, mode="exact")
            want = _per_candidate_sup(space, np.array(g), list(enumerate_stopping_times(space)),
                                      0.5, 1.0)
            assert got.mode == "exact-enumeration"
            _same_result(got, *want[:3])
    assert got.attaining_nu.times.tolist() == [0, 0, 0] and got.candidates_examined == 1


def test_the_cap_decides_the_route_at_the_count():
    (space, f), = generate(CorpusSpec(generator="random-tree", depth=3, max_branching=3, seed=4))
    count = count_stopping_times(space)
    assert campanato_norm(space, f.terminal, 0.5, 1.0, cap=count).mode == "exact-enumeration"
    assert campanato_norm(space, f.terminal, 0.5, 1.0, cap=count - 1).mode == "heuristic-family"
    with pytest.raises(ValueError, match="^cap must be positive$"):
        campanato_norm(space, f.terminal, 0.5, 1.0, mode="exact", cap=0)


@pytest.mark.parametrize("p, q", [(0.5, 1.0), (0.002, 0.002)])
@pytest.mark.parametrize("policy, blocks", [("single", 1), ("random-partition", 4)])
def test_the_exact_route_streams_the_16_outcome_dyadic_tree(policy, blocks, p, q):
    # 458,330 stopping times, whose tables would take megabytes, in blocks of
    # _BLOCK_ELEMS elements: the traced peak stays under 2 MiB, also at
    # p = q = 0.002, where phi(B) underflows
    (space, f), = generate(CorpusSpec(generator="dyadic", depth=4, seed=0, block_policy=policy,
                                      block_param=blocks))
    assert space.n_blocks == blocks and count_stopping_times(space) == 458330
    tracemalloc.start()
    try:
        got = campanato_norm(space, f.terminal, p, q, mode="exact")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.mode == "exact-enumeration" and got.candidates_examined == 458329
    assert peak < 2 * 2 ** 20


def _two_outcome_chain(depth):
    """a and b share one cell down to level depth - 1 and part at depth:
    depth + 4 stopping times, whose top the exact route descends level by level."""
    names = ["a", "b"]
    return FilteredSpace(names, [0.25, 0.75], [[names]] * depth + [[["a"], ["b"]]], [names])


def test_the_exact_route_descends_a_top_of_hundreds_of_levels():
    # at _BLOCK_ELEMS = 64 a table holds at most 20 stopping times, so 584
    # levels of this chain are decoded above the tables: more than a recursion
    # of two frames per level fits in the default recursion limit of 1000
    space, g = _two_outcome_chain(600), np.array([3.0, -1.0])
    want = _per_candidate_sup(space, g, list(enumerate_stopping_times(space)), 0.5, 1.0)
    for block in EXACT_BLOCKS:
        with mock.patch.object(duality, "_BLOCK_ELEMS", block):
            _same_result(campanato_norm(space, g, 0.5, 1.0, mode="exact"), *want[:3])


def test_the_exact_route_scores_a_chain_5000_levels_deep():
    # 2,275 levels above the shipped tables; every time that stops both
    # outcomes at once before level 5000 scores sqrt(E[g^2]) / phi(Omega), a
    # tie that the time stopping at 0 wins
    space, g = _two_outcome_chain(5000), np.array([3.0, -1.0])
    got = campanato_norm(space, g, 0.5, 1.0, mode="exact")
    assert got.mode == "exact-enumeration" and got.candidates_examined == 5003
    assert got.attaining_nu.times.tolist() == [0, 0]
    assert got.norm_value == oscillation(space, g, got.attaining_nu, 0.5, 1.0)


def test_the_tables_keep_a_mirror_tie_as_the_row_path_sums_it():
    # the time that stops at 2 on {o0, o1, o2} and {o5, o6, o7} ties with its
    # right half, which stops on {o5, o6, o7} alone, in exact arithmetic; the
    # rounding of their sums decides, and the tables, in either block size,
    # decide as the row path does
    names = [f"o{i}" for i in range(8)]
    space = FilteredSpace(
        names, [0.057539176518991327, 0.10038763162165736, 0.12583908163784444,
                0.21623411022150685, 0.21623411022150685, 0.12583908163784444,
                0.10038763162165736, 0.057539176518991327],
        [[names], [names[:4], names[4:]], [names[:3], ["o3"], ["o4"], names[5:]],
         [[o] for o in names]], [names])
    g = np.array([2.0, -1.0, 0.0, 0.0, 0.0, 0.0, 1.0, -2.0])
    want = _per_candidate_sup(space, g, list(enumerate_stopping_times(space)), 1.0, 1.0)
    assert want[1].times.tolist() in ([2, 2, 2, INFINITY, INFINITY, 2, 2, 2],
                                      [INFINITY] * 5 + [2, 2, 2])
    for block in EXACT_BLOCKS:
        with mock.patch.object(duality, "_BLOCK_ELEMS", block):
            _same_result(campanato_norm(space, g, 1.0, 1.0, mode="exact"), *want[:3])


def _summed_up_the_tree(space, dev, times):
    """The sums A, P(B) and P(B & block j) of one stopping time, added in pure
    Python up the partition tree: a cell the time stops on adds its members in
    outcome order, and any other cell adds its children's sums from 0, the
    child of least label first.  An oracle of the order of _row_sums."""

    def fold(n, c):
        members = np.flatnonzero(space.level_labels[n] == c).tolist()
        row = [0.0] * (space.n_blocks + 2)
        if times[members[0]] == n:
            for i in members:
                w, d = float(space.prob[i]), float(dev[n][i])
                row[0] += w * (d * d)
                row[1] += w
                row[2 + space.block_labels[i]] += w
        elif n < space.depth:
            for k in sorted(set(space.level_labels[n + 1][members].tolist())):
                row = [x + y for x, y in zip(row, fold(n + 1, k))]
        return row

    return np.array(fold(0, 0))


def _summed_per_outcome(space, dev, times):
    """The same sums added in outcome order, as _row_sums adds them on a space
    with more than _TREE_CELLS last-level cells."""
    row = [0.0] * (space.n_blocks + 2)
    for i, t in enumerate(times.tolist()):
        if t != INFINITY:
            w, d = float(space.prob[i]), float(dev[min(t, space.depth)][i])
            row[0] += w * (d * d)
            row[1] += w
            row[2 + space.block_labels[i]] += w
    return np.array(row)


@given(campanato_cases())
def test_every_table_row_is_the_row_path_sum_of_its_times_bit_for_bit(case):
    # so the exact route folds its tables with no rescoring; the row path itself
    # is checked against the pure-Python fold on a spread of rows
    space, g, *_ = case
    assume(count_stopping_times(space) <= ORACLE_CAP)
    dev, _ = duality._deviations(space, g)
    enum = _enumeration(space)
    index = np.arange(int(enum[0][0][0]))
    times = _decode_times(space, enum, index)
    want = duality._row_sums(space, dev, times)
    for block in EXACT_BLOCKS:
        with mock.patch.object(duality, "_BLOCK_ELEMS", block):
            plan = duality._subtree_tables(space, duality._cell_sums(space, dev), enum)
            assert duality._table_rows(plan, enum, index).tobytes() == want.tobytes()
    for r in index[::max(1, len(index) // 40)].tolist():
        assert want[r].tobytes() == _summed_up_the_tree(space, dev, times[r]).tobytes()


def _interleaved_flat_space(cells):
    """Depth 1, with level-1 cell c holding outcomes c and c + ``cells``, so no
    cell's members are adjacent; seeded weights, and two blocks."""
    names = [f"o{i}" for i in range(2 * cells)]
    w = np.random.default_rng(cells).uniform(0.1, 1.0, 2 * cells)
    return FilteredSpace(names, w / w.sum(),
                         [[names], [[names[c], names[c + cells]] for c in range(cells)]],
                         [names[:cells], names[cells:]])


@pytest.mark.parametrize("cells, route", [(20, "exact-enumeration"), (21, "heuristic-family")])
def test_the_row_path_sums_up_the_tree_up_to_20_last_level_cells(cells, route):
    # 20 last-level cells mean 2^20 + 1 stopping times, over the default cap;
    # a space with more is never enumerated, whatever the cap
    assert duality._TREE_CELLS == 20
    space = _interleaved_flat_space(cells)
    g = centred(space, np.random.default_rng(0).standard_normal(space.size))
    dev, _ = duality._deviations(space, g)
    every = np.ones(space.size, dtype=np.int64)  # stops at 1 on every cell
    tree, by_outcome = (_summed_up_the_tree(space, dev, every),
                        _summed_per_outcome(space, dev, every))
    assert tree.tobytes() != by_outcome.tobytes()  # the two orders round apart here
    got = duality._row_sums(space, dev, every[None])[0]
    assert got.tobytes() == (tree if cells <= 20 else by_outcome).tobytes()
    assert count_stopping_times(space) == 2 ** cells + 1
    assert campanato_norm(space, g, 0.5, 1.0, mode="exact").mode == "heuristic-family"
    assert campanato_norm(space, g, 0.5, 1.0, mode="exact", cap=10 ** 12).mode == route


@pytest.mark.parametrize("mode", ["exact", "heuristic"])
def test_a_positive_value_that_underflows_when_scaled_back_keeps_its_winner(mode):
    # g * 2^-e = (0, 1) scores 1/2 at the time that stops at 0 everywhere, the
    # true maximiser; scaled back by 2^-1074, the value rounds to 0
    space = FilteredSpace(["a", "b"], [0.5, 0.5], [[["a", "b"]], [["a"], ["b"]]], [["a", "b"]])
    got = campanato_norm(space, [0.0, 5e-324], 0.5, 1.0, mode=mode)
    assert got.norm_value == 0.0 and got.attaining_nu.times.tolist() == [0, 0]
