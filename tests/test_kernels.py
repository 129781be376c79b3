import numpy as np
from hypothesis import given, strategies as st

from amalgam import _kernels
from amalgam.space import _constant_on_cells


@st.composite
def partitions(draw, values=st.floats(-1e6, 1e6)):
    """(labels, n_cells, values) with cells that may be empty."""
    n_cells = draw(st.integers(1, 8))
    m = draw(st.integers(1, 40))
    labels = np.array(draw(st.lists(st.integers(0, n_cells - 1), min_size=m, max_size=m)),
                      dtype=np.int64)
    vals = np.array(draw(st.lists(values, min_size=m, max_size=m)))
    return labels, n_cells, vals


def test_cell_kernels_basic():
    labels = np.array([0, 1, 0, 2, 1], dtype=np.int64)
    w = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    assert np.allclose(_kernels.cell_sums(labels, 3, w), [4.0, 7.0, 4.0])
    assert np.allclose(_kernels.cell_max(labels, 3, w), [3.0, 5.0, 4.0])


@given(partitions())
def test_cell_kernels_match_python_loop(case):
    labels, n_cells, vals = case
    sums = [0.0] * n_cells
    maxima = [-np.inf] * n_cells
    for c, v in zip(labels, vals):
        sums[c] += v
        maxima[c] = max(maxima[c], v)
    # bincount adds in input order, as the loop does, so the sums agree exactly
    assert np.array_equal(_kernels.cell_sums(labels, n_cells, vals), sums)
    assert np.array_equal(_kernels.cell_max(labels, n_cells, vals), maxima)


def _constant_on_cells_loop(labels, n_cells, values):
    # the per-outcome loop that refinement and block adaptedness used to run
    owner = [None] * n_cells
    for c, v in zip(labels, values):
        if owner[c] is None:
            owner[c] = v
        elif owner[c] != v:
            return False
    return True


@given(partitions(values=st.integers(0, 2)))
def test_constant_on_cells_matches_loop(case):
    labels, n_cells, vals = case
    inputs = [vals, labels % 2]  # arbitrary values; values constant on cells
    for i in range(len(labels)):  # constant on cells except at outcome i
        v = labels % 2
        v[i] += 1
        inputs.append(v)
    for v in inputs:
        for x in (v, v > 0):  # label-valued and mask-valued inputs
            assert _constant_on_cells(labels, n_cells, x) == _constant_on_cells_loop(
                labels, n_cells, x)


def test_kernels_accept_non_contiguous_input():
    a = np.arange(20, dtype=np.float64).reshape(4, 5)
    labels = np.array([0, 1, 0, 1], dtype=np.int64)
    col = a[:, 2]  # strided view: 2, 7, 12, 17
    assert np.allclose(_kernels.cell_sums(labels, 2, col), [14.0, 24.0])
    assert np.allclose(_kernels.cell_max(labels, 2, col), [12.0, 17.0])
