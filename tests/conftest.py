import numpy as np
import pytest
from hypothesis import reject, settings, strategies as st

import amalgam.cli  # noqa: F401
from amalgam import FilteredSpace, SpaceError, from_terminal

# One profile for every property test: derandomized, so tier-1 runs the same
# examples each time, and no deadline, since examples differ widely in cost.
# print_blob shows a failure's @reproduce_failure blob, so a failure seen only
# in the full suite can be replayed from its own file.
# A test that needs a different example count overrides only max_examples.
# Hypothesis also draws literals found in every loaded non-test module, so
# amalgam.cli, and through it every amalgam module, is imported above: a run of
# one file then draws the same examples as the whole suite.
settings.register_profile("amalgam", derandomize=True, deadline=None, max_examples=200,
                          print_blob=True)
settings.load_profile("amalgam")


@pytest.fixture
def dyadic2():
    """Uniform depth-2 dyadic space with the two level-1 cells as blocks."""
    return FilteredSpace(
        ["w1", "w2", "w3", "w4"],
        [0.25, 0.25, 0.25, 0.25],
        [
            [["w1", "w2", "w3", "w4"]],
            [["w1", "w2"], ["w3", "w4"]],
            [["w1"], ["w2"], ["w3"], ["w4"]],
        ],
        [["w1", "w2"], ["w3", "w4"]],
    )


@pytest.fixture
def worked_example(dyadic2):
    """The hand-checked martingale with terminal (2, 0, -1, -1)."""
    return dyadic2, from_terminal(dyadic2, [2.0, 0.0, -1.0, -1.0])


@pytest.fixture
def coin():
    """Single fair-coin step: two outcomes, one split."""
    space = FilteredSpace(
        ["h", "t"],
        [0.5, 0.5],
        [[["h", "t"]], [["h"], ["t"]]],
        [["h", "t"]],
    )
    return space, from_terminal(space, [1.0, -1.0])


def random_tree_space(rng, depth, branching=2, n_blocks=1):
    """Random refining tree with random positive masses and random blocks."""
    ids = [("r",)]
    weights = np.array([1.0])
    levels = [[list(ids[0])]]
    for n in range(depth):
        new_ids, new_w = [], []
        for path, w in zip(ids, weights):
            k = int(rng.integers(2, branching + 1)) if branching > 1 else 1
            parts = rng.dirichlet(np.ones(k) * 3.0)
            for j in range(k):
                new_ids.append(path + (j,))
                new_w.append(w * parts[j])
        ids, weights = new_ids, np.array(new_w)
    outcomes = ["o" + "".join(str(x) for x in path[1:]) for path in ids]
    weights = weights / weights.sum()
    filtration = []
    for n in range(depth + 1):
        groups = {}
        for i, path in enumerate(ids):
            groups.setdefault(path[: n + 1], []).append(outcomes[i])
        filtration.append(list(groups.values()))
    if n_blocks <= 1:
        blocks = [outcomes]
    else:
        j = min(n_blocks, len(outcomes))
        labels = rng.integers(0, j, size=len(outcomes))
        labels[rng.permutation(len(outcomes))[:j]] = np.arange(j)
        blocks = [
            [outcomes[i] for i in np.flatnonzero(labels == b)] for b in range(j)
        ]
    return FilteredSpace(outcomes, weights, filtration, blocks)


def random_martingale(rng, space):
    x = rng.standard_normal(space.size)
    x -= float(space.prob @ x)
    return from_terminal(space, x)


@st.composite
def small_trees(draw, max_outcomes=6, max_depth=3, random_weights=False, max_blocks=1):
    """Spaces on random partition trees of at most ``max_outcomes`` outcomes.

    A cell has one to three children, so single-child chains occur.  Weights
    are uniform unless ``random_weights``; blocks are random when
    ``max_blocks`` > 1.
    """
    depth = draw(st.integers(0, max_depth))
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
    m = len(paths)
    if random_weights:
        w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m)))
        w /= w.sum()
    else:
        w = np.full(m, 1 / m)
    blocks = [outcomes]
    if max_blocks > 1:
        labels = draw(st.lists(st.integers(0, max_blocks - 1), min_size=m, max_size=m))
        blocks = [b for b in ([o for o, j in zip(outcomes, labels) if j == k]
                              for k in range(max_blocks)) if b]
    return FilteredSpace(outcomes, w, filtration, blocks)


def centred(space, x):
    """A drawn terminal minus its mean.  A (near-)constant draw centres to
    rounding noise, whose mean is not zero at its own scale: from_terminal
    refuses it, and the example is rejected."""
    x = x - float(space.prob @ x)
    try:
        from_terminal(space, x)
    except SpaceError as exc:
        assert "nonzero mean" in str(exc)
        reject()
    return x


@st.composite
def small_martingales(draw, **trees):
    """(space, f): a space from ``small_trees(**trees)`` and the martingale of a
    drawn zero-mean terminal."""
    space = draw(small_trees(**trees))
    x = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=space.size,
                               max_size=space.size)))
    return space, from_terminal(space, centred(space, x))
