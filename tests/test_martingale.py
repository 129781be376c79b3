import numpy as np
import pytest

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
from amalgam.martingale import _ladder_statistic, dominates, ladder_window
from amalgam.space import _constant_on_cells
from conftest import random_martingale, random_tree_space

SQ2 = np.sqrt(2.0)


def test_from_terminal_worked_example(worked_example):
    space, f = worked_example
    assert np.allclose(f.levels[0], 0.0)
    assert np.allclose(f.levels[1], [1, 1, -1, -1])
    assert np.allclose(f.levels[2], [2, 0, -1, -1])


def test_from_terminal_rejects_nonzero_mean(dyadic2):
    with pytest.raises(SpaceError):
        from_terminal(dyadic2, [1.0, 1.0, 1.0, 1.0])


def test_martingale_validation(dyadic2):
    good = [[0, 0, 0, 0], [1, 1, -1, -1], [2, 0, -1, -1]]
    Martingale(dyadic2, good)
    with pytest.raises(SpaceError):
        Martingale(dyadic2, [[1, 1, 1, 1], [1, 1, -1, -1], [2, 0, -1, -1]])
    with pytest.raises(SpaceError):
        # levels[1] is not the conditioning of levels[2]
        Martingale(dyadic2, [[0, 0, 0, 0], [1, 1, 1, -1], [2, 0, -1, -1]])
    with pytest.raises(SpaceError):
        Martingale(dyadic2, [[0, 0, 0, 0], [1, 1, -1, -1]])


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
        stat = _ladder_statistic(f, "s-ladder")
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
        stat = _ladder_statistic(f, "s-ladder")
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


def test_ladder_window_zero_statistic(dyadic2):
    f = Martingale(dyadic2, np.zeros((3, 4)))
    assert ladder_window(_ladder_statistic(f, "s-ladder")) is None


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
            # passes full validation as an envelope against f
            PredictorEnvelope(space, beta.levels, flavor, against=f)
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
            cand = PredictorEnvelope(space, lift, flavor, against=f)
            assert np.all(cand.levels >= beta.levels - 1e-12)


def test_envelope_validation_rejects_bad_shapes(coin):
    space, f = coin
    with pytest.raises(ValueError):
        minimal_envelope(f, "nope")
    with pytest.raises(SpaceError):
        PredictorEnvelope(space, [[1, 1], [0.5, 0.5]], "S")  # decreasing
    with pytest.raises(SpaceError):
        PredictorEnvelope(space, [[-1, -1], [1, 1]], "S")  # negative
    with pytest.raises(SpaceError):
        # not adapted at level 0
        PredictorEnvelope(space, [[1, 2], [2, 2]], "S")
    with pytest.raises(SpaceError):
        # too small to dominate |f_1| = 1 from level 0
        PredictorEnvelope(space, [[0.5, 0.5], [2, 2]], "star", against=f)
