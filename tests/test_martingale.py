import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from amalgam import (
    INFINITY,
    FilteredSpace,
    Martingale,
    PredictorEnvelope,
    SpaceError,
    StoppingTime,
    conditional_quadratic_variation,
    conditional_quadratic_variation_partial,
    differences,
    from_terminal,
    ladder_stopping_time,
    maximal_function,
    minimal_envelope,
    quadratic_variation,
    quadratic_variation_partial,
    stop,
)
from amalgam.martingale import (
    _ladder_statistic, _running, _threshold_times, dominates, ladder_window, stopped,
)
from amalgam.space import (
    SLACK,
    TOL,
    _constant_on_cells,
    at_most,
    conditional_ess_sup,
    scale_of,
    stopping_time_blocks,
)
from conftest import centred, random_martingale, random_tree_space, small_martingales, small_trees

SQ2 = np.sqrt(2.0)


def test_from_terminal_worked_example(worked_example):
    space, f = worked_example
    assert np.allclose(f.levels[0], 0.0)
    assert np.allclose(f.levels[1], [1, 1, -1, -1])
    assert np.allclose(f.levels[2], [2, 0, -1, -1])


@given(small_trees(random_weights=True), st.data())
def test_from_terminal_matches_its_per_cell_loop(space, data):
    x = centred(space, np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=space.size,
                                                   max_size=space.size))))
    mean = float(space.prob @ x)
    want = np.empty((space.depth + 1, space.size))
    for n in range(space.depth + 1):
        for cell in space.cells(n):
            members = [space.index[o] for o in cell]
            total = mass = 0.0
            for i in members:  # in outcome order, as the kernel adds
                total += space.prob[i] * x[i]
                mass += space.prob[i]
            want[n, members] = total / mass - mean
    want[0] = 0.0
    got = from_terminal(space, x).levels
    assert got.tobytes() == want.tobytes()  # bit for bit, with row 0 exactly +0.0


def test_from_terminal_rejects_nonzero_mean(dyadic2):
    with pytest.raises(SpaceError):
        from_terminal(dyadic2, [1.0, 1.0, 1.0, 1.0])


def test_martingale_validation(dyadic2):
    good = [[0, 0, 0, 0], [1, 1, -1, -1], [2, 0, -1, -1]]
    assert repr(Martingale(dyadic2, good)) == "Martingale(depth=2, size=4)"
    with pytest.raises(SpaceError):
        Martingale(dyadic2, [[1, 1, 1, 1], [1, 1, -1, -1], [2, 0, -1, -1]])
    with pytest.raises(SpaceError):
        # levels[1] is not the conditioning of levels[2]
        Martingale(dyadic2, [[0, 0, 0, 0], [1, 1, 1, -1], [2, 0, -1, -1]])
    with pytest.raises(SpaceError):
        Martingale(dyadic2, [[0, 0, 0, 0], [1, 1, -1, -1]])


def test_last_level_must_be_measurable():
    # E_0[f_1] = f_0 holds, but f_1 is not constant on the one level-1 cell
    space = FilteredSpace(["a", "b"], [0.5, 0.5], [[["a", "b"]], [["a", "b"]]], [["a", "b"]])
    with pytest.raises(SpaceError, match="^level 1 is not measurable at time 1$"):
        Martingale(space, [[0, 0], [1, -1]])
    # an earlier failing step is still named as one
    with pytest.raises(SpaceError, match="^martingale property fails at step 0$"):
        Martingale(space, [[0, 0], [1, 0]])
    Martingale(space, [[0, 0], [0, 0]])


def test_differences(worked_example):
    _, f = worked_example
    d = differences(f)
    assert np.allclose(d[0], 0.0)
    assert np.allclose(d[1], [1, 1, -1, -1])
    assert np.allclose(d[2], [1, -1, 0, 0])


def test_quadratic_variations_worked_example(worked_example):
    _, f = worked_example
    S = quadratic_variation_partial(f)
    assert np.allclose(S[1], 1.0)
    assert np.allclose(S[2], [SQ2, SQ2, 1, 1])
    s = conditional_quadratic_variation_partial(f)
    # E_1|d_2|^2 = (1, 1, 0, 0), predictable so s_2 matches S_2 here
    assert np.allclose(s[1], 1.0)
    assert np.allclose(s[2], [SQ2, SQ2, 1, 1])
    assert np.allclose(quadratic_variation(f), S[2])
    assert np.allclose(conditional_quadratic_variation(f), s[2])


def test_conditional_qv_is_predictable():
    rng = np.random.default_rng(10)
    for _ in range(20):
        space = random_tree_space(rng, depth=3, branching=3)
        f = random_martingale(rng, space)
        s = conditional_quadratic_variation_partial(f)
        from amalgam import is_measurable

        for n in range(1, space.depth + 1):
            assert is_measurable(space, s[n], n - 1)
            # exactly: each summand of s_n is a gather of level-(n-1) cell values
            labels = space.level_labels[n - 1]
            assert _constant_on_cells(labels, space.level_sizes[n - 1], s[n])


def test_maximal_function(worked_example):
    _, f = worked_example
    assert np.allclose(maximal_function(f), [2, 1, 1, 1])


def test_l2_isometry():
    rng = np.random.default_rng(11)
    for _ in range(30):
        space = random_tree_space(rng, depth=int(rng.integers(1, 5)), branching=3)
        f = random_martingale(rng, space)
        e_f2 = float(space.prob @ f.terminal**2)
        e_S2 = float(space.prob @ quadratic_variation(f) ** 2)
        e_s2 = float(space.prob @ conditional_quadratic_variation(f) ** 2)
        assert e_f2 == pytest.approx(e_S2, abs=1e-12, rel=1e-12)
        assert e_f2 == pytest.approx(e_s2, abs=1e-12, rel=1e-12)


@given(small_martingales(random_weights=True))
def test_l2_isometry_on_random_trees(case):
    # the terminal has mean 0, so E[f_N^2] = E[S(f)^2] = E[s(f)^2]
    space, f = case
    e_f2 = float(space.prob @ f.terminal**2)
    for variation in (quadratic_variation(f), conditional_quadratic_variation(f)):
        assert at_most(abs(float(space.prob @ variation**2) - e_f2),
                       TOL * scale_of(e_f2))


def test_stop_worked_example(worked_example):
    space, f = worked_example
    nu = StoppingTime(space, [1, 1, INFINITY, INFINITY])
    g = stop(f, nu)
    assert np.allclose(g.levels[0], 0.0)
    assert np.allclose(g.levels[1], [1, 1, -1, -1])
    # w1, w2 are frozen at their level-1 values; w3, w4 keep running
    assert np.allclose(g.levels[2], [1, 1, -1, -1])
    everywhere = StoppingTime(space, [0, 0, 0, 0])
    assert np.allclose(stop(f, everywhere).levels, 0.0)
    never = StoppingTime(space, [INFINITY] * 4)
    assert np.allclose(stop(f, never).levels, f.levels)
    # an equal space is still another space
    twin = FilteredSpace(space.outcomes, space.prob, [space.cells(n) for n in range(3)],
                         space.block_cells())
    with pytest.raises(SpaceError, match="^stopping time lives on a different space$"):
        stop(f, StoppingTime(twin, [0, 0, 0, 0]))


def test_stopped_process_is_a_martingale():
    rng = np.random.default_rng(12)
    from amalgam import enumerate_stopping_times

    space = random_tree_space(rng, depth=2, branching=2)
    f = random_martingale(rng, space)
    for nu in enumerate_stopping_times(space):
        g = stop(f, nu)
        Martingale(space, g.levels)  # validates the conditional law
        # differences vanish strictly after the stop
        d = differences(g)
        for n in range(1, space.depth + 1):
            assert np.all(np.abs(d[n][nu.times < n]) < 1e-12)


@given(small_martingales(random_weights=True), st.data())
def test_stop_matches_its_per_level_definition(case, data):
    space, f = case
    every = np.vstack(list(stopping_time_blocks(space)))
    drawn = every[data.draw(st.integers(0, len(every) - 1))]
    N = space.depth
    for times in (np.zeros(space.size), np.full(space.size, INFINITY), drawn):
        nu = StoppingTime(space, times)
        want = np.empty_like(f.levels)
        for n in range(N + 1):
            for w in range(space.size):
                want[n, w] = f.levels[min(n, int(nu.times[w]), N), w]
        assert np.array_equal(stop(f, nu).levels, want)


@given(small_martingales(random_weights=True), st.data())
def test_conditional_qv_of_the_tail_after_a_stop(case, data):
    """s(f_nu)^2 = s(g)^2 - s_nu(g)^2 pointwise, for f_nu = g - g^nu."""
    space, g = case
    every = np.vstack(list(stopping_time_blocks(space)))
    nu = StoppingTime(space, every[data.draw(st.integers(0, len(every) - 1))])
    # unvalidated, as stop builds it: f_nu may be rounding residue far below g's scale
    f_nu = Martingale(space, g.levels - stop(g, nu).levels, validate=False)
    s_g = conditional_quadratic_variation(g)
    s_nu = stopped(conditional_quadratic_variation_partial(g), nu.times)
    got = conditional_quadratic_variation(f_nu) ** 2
    want = s_g ** 2 - s_nu ** 2
    assert at_most(np.abs(got - want), SLACK * scale_of(s_g ** 2))


@pytest.mark.parametrize("shape", [(1, 5), (2, 3), (11, 64)])
def test_running_is_accumulate_along_levels_bit_for_bit(shape):
    rng = np.random.default_rng(shape[0])
    special = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 1e308]
    x = rng.standard_normal(shape) * np.ldexp(1.0, rng.integers(-1070, 1020, shape))
    x.flat[rng.integers(0, x.size, x.size // 3)] = rng.choice(special, x.size // 3)
    with np.errstate(all="ignore"):  # inf - inf and overflow, in both
        pairs = [(_running(np.add, x.copy()), np.cumsum(x, axis=0)),
                 (_running(np.maximum, x.copy()), np.maximum.accumulate(x, axis=0))]
    for got, want in pairs:
        # a NaN compares by place: its payload is not part of the result
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


def test_ladder_stopping_time_worked_example(worked_example):
    space, f = worked_example
    nu0 = ladder_stopping_time(f, 0)
    assert list(nu0.times) == [1, 1, INFINITY, INFINITY]
    # threshold 1/2 is beaten already by s_1 = 1, so everyone stops at 0
    assert list(ladder_stopping_time(f, -1).times) == [0, 0, 0, 0]
    assert list(ladder_stopping_time(f, 1).times) == [INFINITY] * 4


def test_ladder_stop_caps_the_statistic():
    # s evaluated at the stopped process stays at or below the rung
    rng = np.random.default_rng(13)
    for _ in range(20):
        space = random_tree_space(rng, depth=3, branching=3)
        f = random_martingale(rng, space)
        stat = _ladder_statistic(f, "s")
        window = ladder_window(stat)
        if window is None:
            continue
        for k in range(window[0], window[1] + 2):
            nu = ladder_stopping_time(f, k)
            capped = conditional_quadratic_variation(stop(f, nu))
            assert np.all(capped <= 2.0**k + 1e-12)


def test_ladder_times_nondecreasing_in_k(worked_example):
    space, f = worked_example
    prev = ladder_stopping_time(f, -3).times
    for k in range(-2, 3):
        cur = ladder_stopping_time(f, k).times
        assert np.all(cur >= prev)
        prev = cur


def test_ladder_window_brackets_the_statistic():
    rng = np.random.default_rng(14)
    for _ in range(30):
        space = random_tree_space(rng, depth=3, branching=3)
        f = random_martingale(rng, space)
        stat = _ladder_statistic(f, "s")
        k_min, k_max = ladder_window(stat)
        # positive values below the noise floor do not steer the window
        pos = stat[stat > stat.max() * 1e-12]
        assert 2.0**k_min < pos.min()
        assert 2.0 ** (k_max + 1) >= stat.max()
        # rung above the window never triggers; the bottom stopped
        # martingale carries only noise-level mass
        assert np.all(ladder_stopping_time(f, k_max + 1).times == INFINITY)
        bottom = stop(f, ladder_stopping_time(f, k_min))
        assert np.max(np.abs(bottom.levels)) <= 1e-9 * max(
            1.0, float(np.max(np.abs(f.levels)))
        )


@pytest.mark.parametrize("top", [2.0 ** -1074, 2.0 ** -1022, 0.75, 1.0, np.nextafter(1.0, 2.0),
                                 2.0 ** 1023, np.nextafter(2.0 ** 1023, 0.0),
                                 sys.float_info.max])
def test_ladder_window_is_exact_at_powers_of_two_and_the_float_range(top):
    # 2^k_min < every value, and k_max + 1 is the least k with 2^k >= the max
    low = float(np.nextafter(top, 0.0)) if top > 2.0 ** -1074 else top
    k_min, k_max = ladder_window(np.array([[0.0, low], [top, top]]))
    assert Fraction(2) ** k_min < low
    assert Fraction(2) ** k_max < top <= Fraction(2) ** (k_max + 1)


def test_ladder_window_zero_statistic(dyadic2):
    f = Martingale(dyadic2, np.zeros((3, 4)))
    assert ladder_window(_ladder_statistic(f, "s")) is None


def test_minimal_envelope_coin(coin):
    space, f = coin
    for flavor in ("S", "star"):
        beta = minimal_envelope(f, flavor)
        assert np.allclose(beta.levels, 1.0)
        assert dominates(beta, f)
        # exactly: beta_0 = 1 = S_1 = |f_1| with no rounding
        target = quadratic_variation_partial(f) if flavor == "S" else np.abs(f.levels)
        assert np.all(target[1:] <= beta.levels[:-1])


def test_minimal_envelope_worked_example(worked_example):
    space, f = worked_example
    beta_star = minimal_envelope(f, "star")
    # beta_0 must cover max |f_1| = 1; beta_1 must cover |f_2| cellwise
    assert np.allclose(beta_star.levels[0], 1.0)
    assert np.allclose(beta_star.levels[1], [2, 2, 1, 1])
    assert np.allclose(beta_star.levels[2], [2, 2, 1, 1])
    beta_S = minimal_envelope(f, "S")
    assert np.allclose(beta_S.levels[0], 1.0)
    assert np.allclose(beta_S.levels[1], [SQ2, SQ2, 1, 1])


def test_minimal_envelope_is_admissible_and_minimal():
    rng = np.random.default_rng(15)
    for _ in range(20):
        space = random_tree_space(rng, depth=3, branching=3)
        f = random_martingale(rng, space)
        for flavor in ("S", "star"):
            beta = minimal_envelope(f, flavor)
            # passes full validation as an envelope, and dominates f
            assert dominates(PredictorEnvelope(space, beta.levels, flavor), f)
            # any admissible envelope sits above it pointwise: perturbing
            # the minimal one downward anywhere breaks admissibility
            bumped = beta.levels - 1e-6 * (beta.levels > 1e-6)
            if np.any(bumped < beta.levels):
                cand = PredictorEnvelope(
                    space, np.maximum.accumulate(bumped, axis=0), flavor,
                    validate=False,
                )
                assert not dominates(cand, f)


def test_random_admissible_envelopes_dominate_minimal():
    rng = np.random.default_rng(16)
    for _ in range(20):
        space = random_tree_space(rng, depth=2, branching=3)
        f = random_martingale(rng, space)
        for flavor in ("S", "star"):
            beta = minimal_envelope(f, flavor)
            bumps = rng.uniform(0, 1, size=(beta.levels.shape[0], 1))
            lift = np.maximum.accumulate(beta.levels + bumps, axis=0)
            cand = PredictorEnvelope(space, lift, flavor)
            assert dominates(cand, f)
            assert np.all(cand.levels >= beta.levels - 1e-12)


@given(small_martingales(random_weights=True))
def test_minimal_envelope_matches_its_per_level_loop(case):
    space, f = case
    for flavor in ("S", "star"):
        target = quadratic_variation_partial(f) if flavor == "S" else np.abs(f.levels)
        # beta_n = max(beta_{n-1}, F_n majorant of the level-(n+1) target); beta_N = beta_{N-1}
        want = np.zeros_like(f.levels)
        prev = np.zeros(space.size)
        for n in range(space.depth):
            prev = np.maximum(prev, conditional_ess_sup(space, target[n + 1], n))
            want[n] = prev
        want[space.depth] = prev
        assert minimal_envelope(f, flavor).levels.tobytes() == want.tobytes()  # bit for bit


def test_envelope_validation_rejects_bad_shapes(coin):
    space, f = coin
    with pytest.raises(ValueError, match=r"^flavor must be one of \('S', 'star'\)$"):
        minimal_envelope(f, "nope")
    with pytest.raises(ValueError, match="^flavor must be one of"):
        PredictorEnvelope(space, [[1, 1], [1, 1]], "nope")
    with pytest.raises(SpaceError, match="^envelope levels have wrong shape$"):
        PredictorEnvelope(space, [[1, 1]], "S")
    with pytest.raises(SpaceError):
        PredictorEnvelope(space, [[1, 1], [0.5, 0.5]], "S")  # decreasing
    with pytest.raises(SpaceError):
        PredictorEnvelope(space, [[-1, -1], [1, 1]], "S")  # negative
    with pytest.raises(SpaceError, match="^envelope level 0 not adapted$"):
        PredictorEnvelope(space, [[1, 2], [2, 2]], "S")
    outcomes = list("abcdefgh")
    filtration = [[outcomes[j:j + (8 >> n)] for j in range(0, 8, 8 >> n)] for n in range(4)]
    eight = FilteredSpace(outcomes, [1 / 8] * 8, filtration, [outcomes])
    with pytest.raises(SpaceError, match="^envelope level 1 not adapted$"):
        # levels 1 and 2 each split a cell; the first is named
        PredictorEnvelope(eight, [[1] * 8, [1] * 7 + [2], [2] * 7 + [3], [3] * 8], "S")
    # admissible, but too small to dominate |f_1| = 1 from level 0
    assert not dominates(PredictorEnvelope(space, [[0.5, 0.5], [2, 2]], "star"), f)


@pytest.mark.parametrize("k", [0, -40])
def test_envelope_checks_do_not_depend_on_the_scale_of_their_inputs(dyadic2, k):
    # a slack floored at 1 once passed both for small inputs
    split = np.ldexp([[1, 1, 1, 1], [1, 2, 2, 2], [2, 2, 2, 2]], k)
    with pytest.raises(SpaceError, match="^envelope level 1 not adapted$"):
        PredictorEnvelope(dyadic2, split, "star")
    f = from_terminal(dyadic2, np.ldexp([1.0, -1.0, 3.0, -3.0], k))
    for flavor in PredictorEnvelope.FLAVORS:
        half = PredictorEnvelope(dyadic2, np.full((3, 4), np.ldexp(0.5, k)), flavor)
        assert not dominates(half, f)


def _first_exceedance(stat_rows, thresholds):
    """_threshold_times as an any/argmax over every row: an oracle that needs
    no monotone columns."""
    exceeded = stat_rows[None] > np.asarray(thresholds, dtype=np.float64)[:, None, None]
    return np.where(exceeded.any(axis=1), exceeded.argmax(axis=1), INFINITY)


@given(small_martingales(max_outcomes=8, random_weights=True, max_blocks=2),
       st.lists(st.floats(-1e4, 1e4), max_size=4))
def test_threshold_times_by_counting_are_the_first_exceedances(case, extra):
    space, f = case
    for flavor in ("s", "S", "star"):
        stat = _ladder_statistic(f, flavor)
        # the ladder's own thresholds, each value of the statistic, and a few drawn
        window = ladder_window(stat)
        ks = [] if window is None else range(window[0], window[1] + 2)
        thresholds = [2.0 ** k for k in ks] + stat.ravel().tolist() + extra
        got = _threshold_times(stat, thresholds)
        assert got.dtype == np.int64
        assert got.tolist() == _first_exceedance(stat, thresholds).tolist()


_extended = st.floats(allow_nan=False, width=64)


@given(st.integers(1, 4), st.integers(1, 5), st.data())
def test_threshold_times_by_counting_face_infinities(rows, cols, data):
    # any non-decreasing columns, inf among them, against infinite thresholds too
    stat = np.sort(np.array(data.draw(st.lists(_extended, min_size=rows * cols,
                                               max_size=rows * cols))).reshape(rows, cols), axis=0)
    thresholds = data.draw(st.lists(st.one_of(_extended, st.sampled_from([-np.inf, np.inf])),
                                    min_size=1, max_size=4))
    assert _threshold_times(stat, thresholds).tolist() == _first_exceedance(stat, thresholds).tolist()
