import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from amalgam import (
    INFINITY,
    EnumerationOverflow,
    FilteredSpace,
    SpaceError,
    StoppingTime,
    conditional_ess_sup,
    conditional_expectation,
    count_stopping_times,
    enumerate_stopping_times,
    is_measurable,
    regularity_constant,
)
from amalgam.space import SLACK, TOL, _constant_on_cells, at_most, scale_of
from conftest import random_tree_space


def test_space_invariants_enforced():
    with pytest.raises(SpaceError):
        FilteredSpace(["a", "b"], [0.5, 0.5], [[["a"], ["b"]]], [["a", "b"]])
    with pytest.raises(SpaceError):
        FilteredSpace(["a", "b"], [0.7, 0.5], [[["a", "b"]]], [["a", "b"]])
    with pytest.raises(SpaceError):
        FilteredSpace(["a", "b"], [1.0, 0.0], [[["a", "b"]]], [["a", "b"]])
    with pytest.raises(SpaceError):
        # blocks must cover the outcome set
        FilteredSpace(["a", "b"], [0.5, 0.5], [[["a", "b"]]], [["a"]])
    with pytest.raises(SpaceError):
        # second partition must refine the first
        FilteredSpace(
            ["a", "b", "c"],
            [0.4, 0.3, 0.3],
            [[["a", "b", "c"]], [["a", "b"], ["c"]], [["a"], ["b", "c"]]],
            [["a", "b", "c"]],
        )


def test_conditional_expectation_examples(dyadic2):
    x = [2.0, 0.0, -1.0, -1.0]
    assert np.allclose(conditional_expectation(dyadic2, x, 1), [1, 1, -1, -1])
    # constants are fixed, finest partition is the identity
    c = np.full(4, 3.7)
    for n in range(3):
        assert np.allclose(conditional_expectation(dyadic2, c, n), c)
    assert np.allclose(conditional_expectation(dyadic2, x, 2), x)
    with pytest.raises(SpaceError):
        conditional_expectation(dyadic2, x, 3)


def test_conditional_expectation_preserves_mean(dyadic2):
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.standard_normal(4)
        for n in range(3):
            e = conditional_expectation(dyadic2, x, n)
            assert abs(dyadic2.prob @ e - dyadic2.prob @ x) < 1e-14


def test_tower_property():
    rng = np.random.default_rng(1)
    for trial in range(30):
        space = random_tree_space(rng, depth=int(rng.integers(1, 4)), branching=3)
        x = rng.standard_normal(space.size)
        for m in range(space.depth + 1):
            for n in range(space.depth + 1):
                once = conditional_expectation(space, x, m)
                twice = conditional_expectation(space, once, n)
                direct = conditional_expectation(space, x, min(m, n))
                assert np.max(np.abs(twice - direct)) < 1e-12


def test_conditional_ess_sup(dyadic2):
    x = [2.0, 0.0, -1.0, -1.0]
    assert np.allclose(conditional_ess_sup(dyadic2, x, 1), [2, 2, -1, -1])
    assert np.allclose(conditional_ess_sup(dyadic2, x, 0), [2, 2, 2, 2])
    c = np.full(4, -1.5)
    assert np.allclose(conditional_ess_sup(dyadic2, c, 1), c)


def test_ess_sup_is_smallest_measurable_majorant():
    rng = np.random.default_rng(2)
    for _ in range(20):
        space = random_tree_space(rng, depth=2, branching=3)
        x = rng.standard_normal(space.size)
        for n in range(space.depth + 1):
            m = conditional_ess_sup(space, x, n)
            assert np.all(m >= x - 1e-14)
            assert is_measurable(space, m, n)
            assert _constant_on_cells(space.level_labels[n], space.level_sizes[n], m)
            # per-cell it touches the max, so nothing smaller works
            labels = space.level_labels[n]
            for c in range(space.level_sizes[n]):
                cell = labels == c
                assert m[cell][0] == pytest.approx(np.max(x[cell]))


def test_is_measurable(dyadic2):
    assert is_measurable(dyadic2, np.full(4, 2.0), 0)
    assert is_measurable(dyadic2, [1, 1, -1, -1], 1)
    assert not is_measurable(dyadic2, [2, 0, -1, -1], 1)


def test_is_measurable_compares_at_slack(dyadic2):
    # SLACK = 1e-9 relative to max(1, max|x|): a 1e-10 wobble passes, 1e-8 does not
    assert is_measurable(dyadic2, [1, 1 + 1e-10, -1, -1], 1)
    assert not is_measurable(dyadic2, [1, 1 + 1e-8, -1, -1], 1)


def test_tolerance_policy():
    assert SLACK == 1e3 * TOL == 1e-9
    assert scale_of(0.5, [-3.0, 2.0]) == 3.0 and scale_of([1e-3]) == 1.0
    assert at_most([0.0, 1.0], 1.0) and not at_most([0.0, 1.5], 1.0)
    # NaN on either side never passes, unlike np.max(err) > bound
    assert not at_most([0.0, np.nan], 1.0)
    assert not at_most(0.0, np.nan)


def test_regularity_constant_dyadic(dyadic2):
    # every split halves the mass, so the parent/child ratio is exactly 2
    assert regularity_constant(dyadic2) == pytest.approx(2.0)


def test_regularity_constant_trivial_and_ternary():
    trivial = FilteredSpace(["a"], [1.0], [[["a"]]], [["a"]])
    assert regularity_constant(trivial) == pytest.approx(1.0)
    three = FilteredSpace(
        ["a", "b", "c"],
        [1 / 3, 1 / 3, 1 / 3],
        [[["a", "b", "c"]], [["a"], ["b"], ["c"]]],
        [["a", "b", "c"]],
    )
    assert regularity_constant(three) == pytest.approx(3.0)


def test_regularity_oracle_enumerates_all_splits():
    rng = np.random.default_rng(3)
    for _ in range(10):
        space = random_tree_space(rng, depth=3, branching=3)
        best = 1.0
        for n in range(1, space.depth + 1):
            for i in range(space.size):
                parent = space.cell_probs[n - 1][space.level_labels[n - 1][i]]
                child = space.cell_probs[n][space.level_labels[n][i]]
                best = max(best, parent / child)
        assert regularity_constant(space) == pytest.approx(best)


def test_regularity_interpolating_level_lowers_constant():
    # splitting the 1 -> 0.1 mass drop across two levels shrinks the
    # worst single-step ratio from 10 down to 1 / 0.3
    flat = FilteredSpace(
        ["a", "b", "c", "d"],
        [0.4, 0.3, 0.2, 0.1],
        [[["a", "b", "c", "d"]], [["a"], ["b"], ["c"], ["d"]]],
        [["a", "b", "c", "d"]],
    )
    refined = FilteredSpace(
        ["a", "b", "c", "d"],
        [0.4, 0.3, 0.2, 0.1],
        [
            [["a", "b", "c", "d"]],
            [["a", "b"], ["c", "d"]],
            [["a"], ["b"], ["c"], ["d"]],
        ],
        [["a", "b", "c", "d"]],
    )
    assert regularity_constant(flat) == pytest.approx(10.0)
    assert regularity_constant(refined) == pytest.approx(1 / 0.3)


def test_stopping_time_measurability(dyadic2):
    StoppingTime(dyadic2, [1, 1, INFINITY, INFINITY])
    with pytest.raises(SpaceError):
        # {time = 1} = {w1} is not a union of level-1 cells
        StoppingTime(dyadic2, [1, INFINITY, INFINITY, INFINITY])
    with pytest.raises(SpaceError):
        StoppingTime(dyadic2, [0, 0, 0, 1])


def brute_force_stopping_times(space):
    """Oracle: filter all maps outcome -> {0..N, inf} by measurability."""
    values = list(range(space.depth + 1)) + [INFINITY]
    found = []
    for combo in itertools.product(values, repeat=space.size):
        times = np.array(combo, dtype=np.int64)
        ok = True
        for n in range(space.depth + 1):
            mask = times == n
            labels = space.level_labels[n]
            hit = np.zeros(space.level_sizes[n], dtype=bool)
            hit[labels[mask]] = True
            if not np.all(hit[labels] == mask):
                ok = False
                break
        if ok:
            found.append(tuple(combo))
    return found


def test_enumerate_trivial_space():
    trivial = FilteredSpace(["a"], [1.0], [[["a"]]], [["a"]])
    times = sorted(tuple(nu.times) for nu in enumerate_stopping_times(trivial))
    assert times == [(0,), (INFINITY,)]


def test_enumerate_matches_brute_force():
    rng = np.random.default_rng(4)
    cases = [
        FilteredSpace(
            ["a", "b"], [0.5, 0.5], [[["a", "b"]], [["a"], ["b"]]], [["a", "b"]]
        ),
        random_tree_space(rng, depth=2, branching=2),
        random_tree_space(rng, depth=1, branching=3),
    ]
    for space in cases:
        oracle = sorted(brute_force_stopping_times(space))
        got = sorted(tuple(nu.times) for nu in enumerate_stopping_times(space))
        assert got == oracle
        assert count_stopping_times(space) == len(oracle)


@st.composite
def small_trees(draw, max_outcomes=6):
    """Uniform spaces on random partition trees: depth <= 3, <= 6 outcomes."""
    depth = draw(st.integers(0, 3))
    paths = [()]
    for _ in range(depth):
        grown = []
        for i, path in enumerate(paths):
            room = max_outcomes - len(grown) - (len(paths) - i - 1)
            grown.extend(path + (j,) for j in range(draw(st.integers(1, min(3, room)))))
        paths = grown
    outcomes = ["o" + "".join(map(str, path)) for path in paths]
    filtration = []
    for n in range(depth + 1):
        cells = {}
        for o, path in zip(outcomes, paths):
            cells.setdefault(path[:n], []).append(o)
        filtration.append(list(cells.values()))
    return FilteredSpace(outcomes, np.full(len(paths), 1 / len(paths)), filtration,
                         [outcomes])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(small_trees())
def test_count_and_enumeration_match_validated_brute_force(space):
    values = list(range(space.depth + 1)) + [INFINITY]
    valid = set()
    for combo in itertools.product(values, repeat=space.size):
        try:
            StoppingTime(space, combo)
        except SpaceError:
            continue
        valid.add(combo)
    listed = [tuple(nu.times.tolist()) for nu in enumerate_stopping_times(space)]
    assert count_stopping_times(space) == len(valid) == len(listed)
    assert set(listed) == valid


def test_enumerate_depth1_count_is_five():
    # the only level-0 choices are "stop everyone" or "defer", after which
    # each of the two cells independently stops at 1 or never
    space = FilteredSpace(
        ["a", "b"], [0.5, 0.5], [[["a", "b"]], [["a"], ["b"]]], [["a", "b"]]
    )
    assert count_stopping_times(space) == 5
    assert len(brute_force_stopping_times(space)) == 5


def test_enumerate_overflow():
    space = FilteredSpace(
        ["a", "b"], [0.5, 0.5], [[["a", "b"]], [["a"], ["b"]]], [["a", "b"]]
    )
    with pytest.raises(EnumerationOverflow):
        list(enumerate_stopping_times(space, cap=1))


def test_enumerated_times_are_valid():
    rng = np.random.default_rng(5)
    space = random_tree_space(rng, depth=2, branching=3)
    for nu in enumerate_stopping_times(space):
        StoppingTime(space, nu.times)  # validates level sets


def test_blocks_adapted_predicate(dyadic2):
    assert dyadic2.blocks_adapted(1)
    assert dyadic2.blocks_adapted(2)
    assert not dyadic2.blocks_adapted(0)
    skew = FilteredSpace(
        ["w1", "w2", "w3", "w4"],
        [0.25] * 4,
        [
            [["w1", "w2", "w3", "w4"]],
            [["w1", "w2"], ["w3", "w4"]],
            [["w1"], ["w2"], ["w3"], ["w4"]],
        ],
        [["w1", "w3"], ["w2", "w4"]],
    )
    assert not skew.blocks_adapted(1)
    assert skew.blocks_adapted(2)
