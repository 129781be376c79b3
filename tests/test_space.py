import itertools
import math

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
    lpq_norm,
    regularity_constant,
)
from amalgam.space import (
    _BLOCK_ELEMS,
    SLACK,
    TOL,
    _constant_on_cells,
    _decode_times,
    _enumeration,
    at_most,
    condition_rows,
    ess_sup_rows,
    scale_of,
    stopping_time_blocks,
    within,
)
from conftest import random_tree_space, small_trees


def test_space_invariants_enforced():
    for outcomes, message in (([], "need at least one outcome"),
                              (["a", "a"], "duplicate outcomes")):
        with pytest.raises(SpaceError, match=f"^{message}$"):
            FilteredSpace(outcomes, [1.0] * len(outcomes), [[outcomes]], [outcomes])
    with pytest.raises(SpaceError, match="^filtration must have at least one level$"):
        FilteredSpace(["a", "b"], [0.5, 0.5], [], [["a", "b"]])
    with pytest.raises(SpaceError):
        # an unhashable outcome
        FilteredSpace([["a"], "b"], [0.5, 0.5], [[["b"]]], [["b"]])
    for prob in (["x", 0.5], {"a": "x", "b": 0.5}, [None, 0.5]):
        with pytest.raises(SpaceError):
            FilteredSpace(["a", "b"], prob, [[["a", "b"]]], [["a", "b"]])
    with pytest.raises(SpaceError):
        FilteredSpace(["a", "b"], [0.5, 0.5], [[["a"], ["b"]]], [["a", "b"]])
    with pytest.raises(SpaceError):
        FilteredSpace(["a", "b"], [0.7, 0.5], [[["a", "b"]]], [["a", "b"]])
    with pytest.raises(SpaceError):
        FilteredSpace(["a", "b"], [1.0, 0.0], [[["a", "b"]]], [["a", "b"]])
    with pytest.raises(SpaceError):
        # blocks must cover the outcome set
        FilteredSpace(["a", "b"], [0.5, 0.5], [[["a", "b"]]], [["a"]])
    with pytest.raises(SpaceError, match="^partition 2 does not refine partition 1$"):
        # partitions 2 and 3 do not refine their predecessors; the first is named
        FilteredSpace(
            ["a", "b", "c"],
            [0.4, 0.3, 0.3],
            [[["a", "b", "c"]], [["a", "b"], ["c"]], [["a"], ["b", "c"]], [["a", "c"], ["b"]]],
            [["a", "b", "c"]],
        )


def test_space_copies_the_probabilities_it_is_given():
    outcomes, prob = ["a", "b", "c", "d"], np.full(4, 0.25)
    space = FilteredSpace(outcomes, prob, [[outcomes]], [outcomes])
    assert not np.shares_memory(space.prob, prob) and not space.prob.flags.writeable
    prob[0] = 0.5
    assert space.prob.tolist() == [0.25] * 4


@pytest.mark.parametrize("values", [{"w1": 1.0, "w2": -1.0}, ["x", "y", "z", "w"], [1.0, -1.0]],
                         ids=["mapping", "strings", "wrong-length"])
def test_random_variables_refuse_anything_but_a_numeric_array(dyadic2, values):
    with pytest.raises(SpaceError, match="^random variable "):
        lpq_norm(dyadic2, values, 1, 1)


def test_reprs(dyadic2):
    assert repr(dyadic2) == "FilteredSpace(size=4, depth=2, blocks=2)"
    assert repr(StoppingTime(dyadic2, [1, 1, INFINITY, 2])) == "StoppingTime([1, 1, inf, 2])"


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


@given(small_trees(random_weights=True), st.data())
def test_condition_rows_match_one_level_at_a_time(space, data):
    k = data.draw(st.integers(0, space.depth + 1))
    values = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=k * space.size,
                                max_size=k * space.size))
    rows = np.array(values, dtype=np.float64).reshape(k, space.size)
    for stacked, one in ((condition_rows, conditional_expectation),
                         (ess_sup_rows, conditional_ess_sup)):
        got = stacked(space, rows)
        assert got.shape == rows.shape
        for n, row in enumerate(rows):
            assert np.array_equal(got[n], one(space, row, n))
        with pytest.raises(SpaceError, match="^rows of shape .* do not fit levels"):
            stacked(space, np.zeros((space.depth + 2, space.size)))  # past level N


@given(small_trees(random_weights=True), st.data())
def test_condition_rows_tower_and_idempotence(space, data):
    x = np.array(data.draw(st.lists(st.floats(-1e6, 1e6), min_size=space.size,
                                    max_size=space.size)))
    levels = space.depth + 1
    table = condition_rows(space, np.broadcast_to(x, (levels, space.size)))  # E[x | F_m]
    tol = TOL * scale_of(x)
    for m in range(levels):
        # row n of the second pass is E[E[x | F_m] | F_n], which is E[x | F_min(m, n)]
        twice = condition_rows(space, np.broadcast_to(table[m], (levels, space.size)))
        assert at_most(np.abs(twice - table[np.minimum(m, np.arange(levels))]), tol)
    assert at_most(np.abs(condition_rows(space, table) - table), tol)


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
    # SLACK = 1e-9 relative to max|x|: a 1e-10 wobble passes, 1e-8 does not
    assert is_measurable(dyadic2, [1, 1 + 1e-10, -1, -1], 1)
    assert not is_measurable(dyadic2, [1, 1 + 1e-8, -1, -1], 1)


@pytest.mark.parametrize("k", [0, -40])
def test_is_measurable_does_not_depend_on_the_scale_of_x(dyadic2, k):
    # a slack floored at 1 once passed the split cell {w1, w2} for small x
    assert not is_measurable(dyadic2, np.ldexp([1.0, 2.0, -1.0, -1.0], k), 1)


def test_tolerance_policy():
    assert SLACK == 1e3 * TOL == 1e-9
    assert scale_of(0.5, [-3.0, 2.0]) == 3.0 and scale_of([1e-3]) == 1e-3
    # no floor of 1, and a NaN is the scale, so a check against it never passes
    assert math.isnan(scale_of([1.0, np.nan], 2.0))
    assert at_most([0.0, 1.0], 1.0) and not at_most([0.0, 1.5], 1.0)
    # NaN on either side never passes, unlike np.max(err) > bound
    assert not at_most([0.0, np.nan], 1.0)
    assert not at_most(0.0, np.nan)
    # within() neither: a NaN lhs, rhs or scale fails each form
    assert within(1.0, 1.0) and within(1.0, 1.0, 0.0) and within(1e-9, 0.0, 1.0)
    assert not (within(np.nan, 1.0) or within(0.0, np.nan) or within(0.0, 0.0, np.nan))


# Each tolerance check of the library, as the within() call it makes beside the
# expression it was decided by before within() existed: (sites, within, parent,
# tie).  Every function takes the same values, the first of them the one that
# is tested against the rest; tie(*rest) is where the parent's verdict flips.
_S, _T = SLACK, TOL
_SITES = [
    ("verify_atom's vanishing, support and size at bound 0, reconstruction, "
     "measurable_rows, from_terminal's mean, representer's residual",
     lambda x, s: within(x, 0.0, s), lambda x, s: at_most(x, _S * s), lambda s: _S * s),
    ("f_0 = 0, the probability sum",
     lambda x, s: within(x, 0.0, s, single_rounding=True), lambda x, s: at_most(x, _T * s),
     lambda s: _T * s),
    ("the martingale law, every row",
     lambda x, s: within(np.array([[x, 0.0], [0.0, x]]), 0.0, s),
     lambda x, s: bool(np.less_equal(np.array([[x, 0.0], [0.0, x]]), _S * s).all(axis=1).all()),
     lambda s: _S * s),
    ("dominates", lambda x, y, s: within(x, y, s), lambda x, y, s: at_most(x, y + _S * s),
     lambda y, s: y + _S * s),
    ("the absolute form at TOL with any rhs, as the envelope's monotonicity calls it",
     lambda x, y, s: within(x, y, s, single_rounding=True),
     lambda x, y, s: at_most(x, y + _T * s), lambda y, s: y + _T * s),
    ("verify_atom's size, certify_bounds' upper and converse sides, reverse Minkowski",
     lambda x, y: within(x, y), lambda x, y: at_most(x, y * (1.0 + _S)),
     lambda y: y * (1.0 + _S)),
    ("the relative form at TOL, which no check uses",
     lambda x, y: within(x, y, single_rounding=True), lambda x, y: at_most(x, y * (1.0 + _T)),
     lambda y: y * (1.0 + _T)),
    ("the envelope's sign",
     lambda b, s: within(-np.array([b, 1.0]), 0.0, s, single_rounding=True),
     lambda b, s: at_most(-(_T * s), np.array([b, 1.0])), lambda s: -(_T * s)),
    ("the envelope's monotonicity",
     lambda b, a, s: within(-np.array([b]), -np.array([a]), s, single_rounding=True),
     lambda b, a, s: at_most(np.array([a]) - _T * s, np.array([b])), lambda a, s: a - _T * s),
    ("both links of the duality chain",
     lambda lhs, a, b: within([lhs, a], np.array([a, b]), scale_of(lhs, a, b)),
     lambda lhs, a, b: (at_most(lhs, a + (slack := _S * scale_of(lhs, a, b)))
                        and at_most(a, b + slack)),
     lambda a, b: a + _S * scale_of(a, b)),
]
_SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
            1e-300, 0.5, 1.0, -1.0, 3.0, 1e300, 1e308, 1.7976931348623157e308,
            -1.7976931348623157e308]


def _near_ties(tie, rest):
    """The tested value at the parent's threshold and one ulp either side."""
    with np.errstate(over="ignore", invalid="ignore"):
        t = float(tie(*rest))
    return [t, *np.nextafter(t, [-math.inf, math.inf]).tolist()]


@pytest.mark.parametrize("sites, new, parent, tie", _SITES, ids=[s[0] for s in _SITES])
def test_every_within_verdict_is_the_parents_on_special_values(sites, new, parent, tie):
    arity = tie.__code__.co_argcount
    with np.errstate(over="ignore", invalid="ignore"):
        for rest in itertools.product(_SPECIAL, repeat=arity):
            for x in [*_SPECIAL, *_near_ties(tie, rest)]:
                assert new(x, *rest) == parent(x, *rest), (x, *rest)


@settings(max_examples=300)
@given(st.data())
@pytest.mark.parametrize("sites, new, parent, tie", _SITES, ids=[s[0] for s in _SITES])
def test_every_within_verdict_is_the_parents_at_a_near_tie(sites, new, parent, tie, data):
    rest = data.draw(st.tuples(*[st.floats()] * tie.__code__.co_argcount))
    with np.errstate(over="ignore", invalid="ignore"):
        for x in _near_ties(tie, rest):
            assert new(x, *rest) == parent(x, *rest), (x, *rest)


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
                # the masses of outcome i's cells at levels n - 1 and n, by definition
                lab = space.level_labels
                parent = space.prob[lab[n - 1] == lab[n - 1][i]].sum()
                child = space.prob[lab[n] == lab[n][i]].sum()
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
    with pytest.raises(SpaceError, match="^stopping time has wrong length$"):
        StoppingTime(dyadic2, [0, 0, 0])


@given(small_trees(max_outcomes=12, max_depth=4), st.data())
def test_stopping_time_check_agrees_with_the_level_by_level_check(space, data):
    """StoppingTime counts the members of each cell its outcomes name; its
    verdict and failing level are those of the (N+1, M) check of every
    {time == n} against the level-n cells, kept here as the oracle."""
    values = [*range(space.depth + 1), INFINITY]
    kind = data.draw(st.sampled_from(["measurable", "moved", "free"]))
    if kind == "free":
        times = np.array(data.draw(st.lists(st.sampled_from(values), min_size=space.size,
                                            max_size=space.size)), dtype=np.int64)
    else:
        # the first level whose drawn cell flag is up: measurable at its own time
        n_cells = int(space.cell_offsets[-1])
        up = np.array(data.draw(st.lists(st.booleans(), min_size=n_cells,
                                         max_size=n_cells)))[space.cell_labels]
        times = np.where(up.any(axis=0), up.argmax(axis=0), INFINITY)
        if kind == "moved":
            times[data.draw(st.integers(0, space.size - 1))] = data.draw(st.sampled_from(values))
    stops = times == np.arange(space.depth + 1)[:, None]
    ok = _constant_on_cells(space.cell_labels, space.cell_offsets[-1], stops)
    if ok.all():
        assert StoppingTime(space, times).times.tolist() == times.tolist()
    else:
        n = int(ok.argmin())
        with pytest.raises(SpaceError, match=rf"^level set \{{time == {n}\}} not measurable at {n}$"):
            StoppingTime(space, times)


@pytest.mark.parametrize("times", [[0.5] * 4, [1.9] * 4, [math.nan] * 4, [True] * 4],
                         ids=["half", "fraction", "nan", "bool"])
def test_stopping_time_values_must_be_whole(dyadic2, times):
    # a whole float is a time; these would be cast to 0, 1, a warning and 1
    assert StoppingTime(dyadic2, [1.0, 1.0, 2.0, 2.0]).times.tolist() == [1, 1, 2, 2]
    with pytest.raises(SpaceError, match=r"^stopping-time values must be int64 integers, or whole "
                                         r"floats in 0\.\.2$"):
        StoppingTime(dyadic2, times)


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


# brute force over every times vector: 30 examples keep it to a few seconds
@settings(max_examples=30)
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


#: decoder property trees above this count only check the cap
DECODER_ROWS = 3000


@given(small_trees(max_outcomes=16), st.randoms(use_true_random=False))
def test_decoded_blocks_are_every_stopping_time_once(space, rnd):
    count = count_stopping_times(space)
    under_cap = stopping_time_blocks(space, cap=count - 1)
    with pytest.raises(EnumerationOverflow):
        next(under_cap)  # raised before any block is yielded
    if count > DECODER_ROWS:
        return
    blocks = list(stopping_time_blocks(space, cap=count))
    assert all(len(b) <= max(1, _BLOCK_ELEMS // space.size) for b in blocks)
    rows = np.vstack(blocks)
    assert rows.dtype == np.int64 and rows.shape == (count, space.size)
    assert len(np.unique(rows, axis=0)) == count
    for times in rows:
        StoppingTime(space, times)  # validates level sets
    # the exact route decodes its candidates by number: any order, with repeats
    index = np.array([rnd.randrange(count) for _ in range(rnd.randrange(1, 2 * count + 1))])
    enum = _enumeration(space, count)
    assert np.array_equal(_decode_times(space, enum, index), rows[index])
    assert _decode_times(space, enum, index[:0]).shape == (0, space.size)


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
    with pytest.raises(ValueError, match="^cap must be positive$"):
        list(stopping_time_blocks(space, cap=0))


def test_enumerated_times_are_valid():
    rng = np.random.default_rng(5)
    space = random_tree_space(rng, depth=2, branching=3)
    for nu in enumerate_stopping_times(space):
        StoppingTime(space, nu.times)  # validates level sets


# -- partition labels ---------------------------------------------------------------


def _per_partition_labels(space, cells, what):
    """The labels of one partition with a name lookup for every member, as
    FilteredSpace built them before in-order partitions skipped it: an oracle."""
    try:
        sizes = [len(cell) for cell in cells]
        index = space.index
        members = [index[o] for cell in cells for o in cell]
    except (KeyError, TypeError):
        members = None
    if members is not None and len(members) == space.size and 0 not in sizes:
        labels = np.full(space.size, -1, dtype=np.int64)
        labels[members] = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
        if np.all(labels >= 0):
            return labels, len(sizes)
    raise SpaceError(f"{what}: {space._partition_fault(cells)}")


def _per_level_labels(space, filtration, blocks):
    """(level labels, level sizes, block labels, block count) of the per-level
    loop and its checks, in their order, or the SpaceError it raised.  ``space``
    lends its outcome index."""
    level_labels, level_sizes = [], []
    for n, part in enumerate(filtration):
        labels, count = _per_partition_labels(space, part, f"filtration level {n}")
        level_labels.append(labels)
        level_sizes.append(count)
    if level_sizes[0] != 1:
        raise SpaceError("partition 0 must be the trivial partition")
    offsets = np.cumsum([0] + level_sizes)
    cell_labels = np.stack(level_labels) + offsets[:-1, None]
    refines = _constant_on_cells(cell_labels[1:], offsets[-1], cell_labels[:-1])
    if not refines.all():
        n = int(refines.argmin())
        raise SpaceError(f"partition {n + 1} does not refine partition {n}")
    return level_labels, level_sizes, *_per_partition_labels(space, blocks, "blocks")


@st.composite
def _laid_out(draw):
    """(space, filtration, blocks): a space's partitions with their cells in
    order, the cells shuffled, or the members shuffled within their cells."""
    space = draw(small_trees(max_outcomes=8, max_blocks=3))
    parts = [space.cells(n) for n in range(space.depth + 1)] + [space.block_cells()]
    rnd = draw(st.randoms(use_true_random=False))
    layout = draw(st.sampled_from(["in order", "cells shuffled", "members shuffled"]))
    for cells in parts:
        if layout == "cells shuffled":
            rnd.shuffle(cells)
        elif layout == "members shuffled":
            for cell in cells:
                rnd.shuffle(cell)
    return space, parts[:-1], parts[-1]


def _built_or_refused(build):
    try:
        return build()
    except SpaceError as exc:
        return str(exc)


@given(_laid_out())
def test_one_pass_labels_are_the_per_level_labels(case):
    space, filtration, blocks = case
    got = FilteredSpace(space.outcomes, space.prob, filtration, blocks)
    levels, sizes, block_labels, n_blocks = _per_level_labels(space, filtration, blocks)
    assert [x.tolist() for x in got.level_labels] == [x.tolist() for x in levels]
    assert got.level_sizes == sizes
    assert got.block_labels.tolist() == block_labels.tolist()
    assert got.n_blocks == n_blocks
    offsets = np.cumsum([0] + sizes)
    assert got.cell_offsets.tolist() == offsets.tolist()
    assert got.cell_labels.tolist() == (np.stack(levels) + offsets[:-1, None]).tolist()


#: ways to break one partition: each gives a fault, or a partition that
#: may not refine its coarser level
_FAULTS = ("drop", "repeat", "swap", "unknown", "empty cell", "unhashable", "array", "split")


def _break(cells, fault, rnd):
    cells = [list(cell) for cell in cells]
    cell = rnd.choice(cells)
    i = rnd.randrange(len(cell))
    if fault == "drop":
        del cell[i]
    elif fault == "repeat":  # a member of some cell in place of another
        cell[i] = rnd.choice(rnd.choice(cells))
    elif fault == "swap":  # two members trade cells: still a partition
        other = rnd.choice(cells)
        j = rnd.randrange(len(other))
        cell[i], other[j] = other[j], cell[i]
    elif fault == "unknown":
        cell[i] = "zz"
    elif fault == "empty cell":
        cells.insert(rnd.randrange(len(cells) + 1), [])
    elif fault == "unhashable":
        cell[i] = [cell[i]]
    elif fault == "array":  # equal to no outcome: its == is elementwise
        cell[i] = np.array([cell[i], cell[i]])
    else:  # a cell in two: still a partition
        cells.append(cell[i:])
        del cell[i:]
    return [c for c in cells if c or fault == "empty cell"]


@pytest.mark.parametrize("fault", _FAULTS)
@settings(max_examples=60)
@given(case=_laid_out(), data=st.data())
def test_malformed_partitions_are_refused_as_the_per_level_loop_refused_them(fault, case, data):
    # levels 1..N and the blocks (index N + 1), one or more of them broken
    space, filtration, blocks = case
    rnd = data.draw(st.randoms(use_true_random=False))
    parts = filtration + [blocks]
    for n in data.draw(st.sets(st.integers(1, space.depth + 1), min_size=1)):
        parts[n] = _break(parts[n], fault, rnd)
    filtration, blocks = parts[:-1], parts[-1]
    got = _built_or_refused(lambda: FilteredSpace(space.outcomes, space.prob, filtration, blocks))
    want = _built_or_refused(lambda: _per_level_labels(space, filtration, blocks))
    if isinstance(want, str):
        assert got == want
    else:
        assert [x.tolist() for x in got.level_labels] == [x.tolist() for x in want[0]]
        assert got.block_labels.tolist() == want[2].tolist()


class _Hashed:
    """An outcome that records each call of its __hash__."""

    def __init__(self, calls):
        self.calls = calls

    def __hash__(self):
        self.calls.append(self)
        return id(self) >> 4


def test_in_order_partitions_are_labelled_with_no_name_lookup():
    # a lost fast path keeps every result but costs a name lookup per member
    calls = []
    outcomes = [_Hashed(calls) for _ in range(8)]
    filtration = [[outcomes], [outcomes[:4], outcomes[4:]],
                  [outcomes[i:i + 2] for i in range(0, 8, 2)]]
    prob = np.full(8, 0.125)
    space = FilteredSpace(outcomes, prob, filtration, [outcomes[:3], outcomes[3:]])
    # in-order levels and blocks: each outcome is hashed once, for the index
    assert sorted(map(id, calls)) == sorted(map(id, outcomes))
    assert space.block_labels.tolist() == [0, 0, 0, 1, 1, 1, 1, 1]
    calls.clear()
    space = FilteredSpace(outcomes, prob, filtration, [outcomes[1::2], outcomes[::2]])
    # scattered blocks: each member is hashed once more, to be looked up
    assert sorted(map(id, calls)) == sorted(map(id, outcomes + outcomes))
    assert space.block_labels.tolist() == [1, 0] * 4
    assert [x.tolist() for x in space.level_labels] == [[0] * 8, [0] * 4 + [1] * 4,
                                                         [0, 0, 1, 1, 2, 2, 3, 3]]
