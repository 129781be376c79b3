"""Finite filtered probability spaces.

A :class:`FilteredSpace` is a finite outcome set with strictly positive
probabilities, a refining partition filtration (partition ``n`` holds the
atoms of the sigma-algebra at time ``n``) and a block partition used by the
amalgam norm.  Random variables are plain numpy arrays indexed by outcome
order; conditioning and measurability primitives live here as module
functions.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from . import _kernels

#: Stopping-time value meaning "never stops".
INFINITY = np.iinfo(np.int64).max


# -- tolerance policy: the only tolerances, applied by within() alone ---------

#: comparisons after a single rounding step
TOL = 1e-12
#: accumulated arithmetic (conditioning chains, ladders) and certificate checks
SLACK = 1e3 * TOL


def scale_of(*values) -> float:
    """max|x| over all given arrays and scalars; a NaN among them is the result."""
    return float(functools.reduce(np.maximum, [np.abs(x).max() for x in values]))


def at_most(x, bound) -> bool:
    """Whether every x <= bound, exactly; NaN on either side never passes."""
    return bool(np.all(np.less_equal(x, bound)))


def within(lhs, rhs, scale=None, single_rounding=False) -> bool:
    """Whether every lhs <= rhs * (1 + tol), or lhs <= rhs + tol * scale given scale_of() the
    values compared, with no floor; tol is TOL after one rounding step, else SLACK.  NaN fails."""
    tol = TOL if single_rounding else SLACK
    return at_most(lhs, rhs * (1.0 + tol) if scale is None else rhs + tol * scale)


class SpaceError(ValueError):
    """Invalid space, partition or random-variable input."""


def require_finite(x, what):
    """Reject NaN and +-inf at an input boundary."""
    if not np.all(np.isfinite(x)):
        raise SpaceError(f"{what} must be finite")


def binary_exponent(top: float) -> int:
    """The e with top * 2^-e in (1/2, 1]; 0 when top is 0 or not finite.

    For top = max|x|, scaling x by 2^-e is exact, so a homogeneous quantity
    computed on x * 2^-e and scaled back by 2^e cannot overflow in between,
    and keeps every bit where it only adds, multiplies and takes square roots.
    """
    if top == 0.0 or not math.isfinite(top):
        return 0
    m, e = math.frexp(top)
    return e - 1 if m == 0.5 else e


def scaled(x):
    """(x * 2^-e, e) with e = binary_exponent(max|x|), so max|x| * 2^-e is in (1/2, 1]."""
    e = binary_exponent(scale_of(x))
    return np.ldexp(x, -e), e


def times_pow2(x, e):
    """x * 2^e, as a scaled value is scaled back; inf beyond the float range, with no warning."""
    with np.errstate(over="ignore"):
        return np.ldexp(x, e)


#: elements in one block of stacked stopping times (rows x outcomes), in one
#: table of the exact route (rows x (J + 2) sums), and in the (rows x (J + 2))
#: sums a block holds for each entry of duality._subtree_tables' plan, at most
#: 3L - 1 for L last-level cells, which the row path counts together.  It
#: bounds the memory of every route, at one row a block at least: a cell gets
#: a table of its subtree's stopping times only where one fits, and the levels
#: above are decoded in blocks of rows.
_BLOCK_ELEMS = 1 << 13
#: default cap on the stopping-time count of an exact enumeration
ENUMERATION_CAP = 10**6


class EnumerationOverflow(RuntimeError):
    """Raised when the stopping-time count exceeds the requested cap."""

    def __init__(self, count, cap):
        super().__init__(f"{count} stopping times exceed cap {cap}")
        self.count = count
        self.cap = cap


class FilteredSpace:
    """Finite probability space with a filtration and amalgam blocks.

    Parameters
    ----------
    outcomes : ordered collection of hashable outcome identifiers
    prob : strictly positive weights summing to 1, an array in outcome order
    filtration : list of partitions; each partition is a list of cells and
        each cell a list of outcome identifiers.  Partition 0 must be the
        trivial partition and each partition must refine the previous one.
    blocks : partition of the outcome set (single list of cells)

    Cell c of partition n (``level_labels[n] == c``) is cell
    ``cell_offsets[n] + c`` of ``cell_labels``, ``cell_masses`` and
    ``cell_counts``, its number of members.  Every array a space holds is
    read-only, ``prob`` a copy of the one given, as many objects share a space.
    """

    def __init__(self, outcomes, prob, filtration, blocks):
        self.outcomes = tuple(outcomes)
        self.size = len(self.outcomes)
        if self.size < 1:
            raise SpaceError("need at least one outcome")
        try:
            self.index = {o: i for i, o in enumerate(self.outcomes)}
        except TypeError as exc:
            raise SpaceError(f"outcomes must be hashable: {exc}") from exc
        if len(self.index) != self.size:
            raise SpaceError("duplicate outcomes")

        try:
            p = np.array(prob, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise SpaceError(f"probabilities must be numbers: {exc}") from exc
        if p.shape != (self.size,):
            raise SpaceError("probability vector has wrong length")
        if not np.all(p > 0.0):
            raise SpaceError("probabilities must be strictly positive")
        if not within(abs(p.sum() - 1.0), 0.0, self.size, single_rounding=True):
            raise SpaceError(f"probabilities sum to {p.sum()!r}, not 1")
        self.prob = p

        if not filtration:
            raise SpaceError("filtration must have at least one level")
        self.level_labels, self.level_sizes = map(list, zip(*(
            self._labels(cells, f"filtration level {n}") for n, cells in enumerate(filtration))))
        # from here on the space is built from label rows alone
        if self.level_sizes[0] != 1:
            raise SpaceError("partition 0 must be the trivial partition")
        self.cell_offsets = np.cumsum([0] + self.level_sizes)
        self.cell_labels = np.add(self.level_labels, self.cell_offsets[:-1, None])
        # partition n+1 refines partition n: coarse labels constant on fine cells
        refines = _constant_on_cells(self.cell_labels[1:], self.cell_offsets[-1],
                                     self.cell_labels[:-1])
        if not refines.all():
            n = int(refines.argmin())
            raise SpaceError(f"partition {n + 1} does not refine partition {n}")
        self.block_labels, self.n_blocks = self._labels(blocks, "blocks")

        # the cells of all levels are summed in one pass; every conditioning
        # call reads the cached masses
        self.cell_masses = _kernels.cell_sums(self.cell_labels.ravel(), self.cell_offsets[-1],
                                              np.tile(self.prob, self.depth + 1))
        self.cell_counts = np.bincount(self.cell_labels.ravel(), minlength=self.cell_offsets[-1])
        for a in (*vars(self).values(), *self.level_labels):
            if isinstance(a, np.ndarray):
                a.flags.writeable = False

    # -- construction helpers -------------------------------------------

    def _labels(self, cells, what):
        """(the int64 cell of every outcome, the cell count) of the partition
        ``cells``, or a SpaceError naming ``what`` and its first fault.

        A partition whose cells, read in order, list the outcomes in outcome
        order is labelled by its cell sizes alone, with no name lookup; any
        other takes one index pass and one scatter.  With every cell non-empty
        and exactly M known members, covering the outcome set means no outcome
        is in two cells.
        """
        try:
            if any(issubclass(t, str) for t in set(map(type, cells))):
                raise TypeError  # its characters would read as outcomes
            sizes = list(map(len, cells))
            flat = tuple(itertools.chain.from_iterable(cells))
            members = None if flat == self.outcomes else list(map(self.index.__getitem__, flat))
        except (KeyError, TypeError, ValueError):  # ValueError: an array member's ==
            sizes = ()
        labels = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
        if len(labels) == self.size and 0 not in sizes:
            if members is None:
                return labels, len(sizes)
            row = np.full(self.size, -1, dtype=np.int64)
            row[members] = labels
            if np.all(row >= 0):
                return row, len(sizes)
        raise SpaceError(f"{what}: {self._partition_fault(cells)}")

    def _partition_fault(self, cells):
        """The first fault met in cell order: what _labels rejects."""
        seen = set()
        for cell in cells:
            if isinstance(cell, str):
                return f"cell {cell!r} is a string, not a list of outcomes"
            if not cell:
                return "empty cell"
            for o in cell:
                i = self.position(o)
                if i is None:
                    return f"unknown outcome {o!r}"
                if i in seen:
                    return f"outcome {o!r} in two cells"
                seen.add(i)
        return "cells do not cover the outcome set"

    # -- basic accessors --------------------------------------------------

    def position(self, o):
        """The index of outcome o, or None when o is no outcome (an unhashable o included)."""
        try:
            return self.index.get(o)
        except TypeError:
            return None

    @property
    def depth(self) -> int:
        """Final time index N (levels run 0..N)."""
        return len(self.level_labels) - 1

    def cells(self, n):
        """Cells of partition n as lists of outcome identifiers."""
        return self._named(_groups(self.level_labels[n], self.level_sizes[n]))

    def block_cells(self):
        return self._named(_groups(self.block_labels, self.n_blocks))

    def _named(self, groups):
        return [[self.outcomes[i] for i in idx.tolist()] for idx in groups]

    def rv(self, values):
        """Coerce an array in outcome order to a float value vector."""
        try:
            x = np.asarray(values, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise SpaceError(f"random variable must be numbers: {exc}") from exc
        if x.shape != (self.size,):
            raise SpaceError("random variable has wrong length")
        return x

    def _check_level(self, n):
        if not 0 <= n <= self.depth:
            raise SpaceError(f"time index {n} out of range 0..{self.depth}")

    def __repr__(self):
        return (
            f"FilteredSpace(size={self.size}, depth={self.depth}, "
            f"blocks={self.n_blocks})"
        )


class StoppingTime:
    """Map outcome -> {0..N} or INFINITY, measurable at its own time.

    The level set {time == n} must be a union of partition-n cells for
    every finite n; this is checked on construction.
    """

    def __init__(self, space: FilteredSpace, times, validate=True):
        self.space = space
        t = np.asarray(times)
        if t.shape != (space.size,):
            raise SpaceError("stopping time has wrong length")
        # the int64 cast would read 0.5 as 0 and True as 1, and warn on NaN; no float is INFINITY
        if validate and t.dtype.kind not in "iu" and not (
                t.dtype.kind == "f" and np.isin(t, np.arange(space.depth + 1)).all()):
            raise SpaceError(f"stopping-time values must be int64 integers, or whole floats in "
                             f"0..{space.depth}")
        self.times = t = t.astype(np.int64, copy=False)
        if validate:
            on = np.flatnonzero(t != INFINITY)
            finite = t[on]
            if finite.size and (finite.min() < 0 or finite.max() > space.depth):
                raise SpaceError("stopping-time values out of range")
            # each stopping outcome names its cell at its own time: {time == n} is
            # a union of level-n cells when all members of each named cell name it
            named = np.bincount(space.cell_labels[finite, on], minlength=len(space.cell_counts))
            torn = (named != 0) & (named != space.cell_counts)
            if torn.any():
                # cells are numbered level by level, so the first torn one is at the least n
                n = int(np.searchsorted(space.cell_offsets, torn.argmax(), side="right")) - 1
                raise SpaceError(f"level set {{time == {n}}} not measurable at {n}")

    @property
    def support(self):
        """Boolean mask of B = {time != infinity}."""
        return self.times != INFINITY

    def __repr__(self):
        shown = ["inf" if t == INFINITY else str(t) for t in self.times]
        return f"StoppingTime([{', '.join(shown)}])"


def require_space(nu: StoppingTime, space: FilteredSpace):
    """Refuse a stopping time nu that lives on another space than ``space``."""
    if nu.space is not space:
        raise SpaceError("stopping time lives on a different space")


def same_space(a: FilteredSpace, b: FilteredSpace) -> bool:
    """Whether a and b are one space: the same outcomes in the same order,
    the same probabilities, and the same partitions up to cell order."""

    def same_partition(la, na, lb, nb):
        # each labelling is a function of the other, row by row: the same cells
        return bool(_constant_on_cells(la, na, lb).all() and _constant_on_cells(lb, nb, la).all())

    return a is b or (
        a.outcomes == b.outcomes
        and np.array_equal(a.prob, b.prob)
        and a.depth == b.depth
        and same_partition(a.cell_labels, a.cell_offsets[-1], b.cell_labels, b.cell_offsets[-1])
        and same_partition(a.block_labels, a.n_blocks, b.block_labels, b.n_blocks)
    )


def _constant_on_cells(labels, n_cells, values):
    """Whether each row of ``values`` is constant on every cell of its row of
    ``labels``: one bool per row, or one bool for a single row.

    Writes some member's value to each cell, then checks that every member
    equals its cell's value.  Rows must number disjoint cells, as the rows of
    cell_labels do, so one scatter serves every row.
    """
    cell = np.empty(n_cells, dtype=values.dtype)
    cell[labels] = values
    return (cell[labels] == values).all(axis=-1)


def conditional_expectation(space: FilteredSpace, x, n) -> np.ndarray:
    """E[x | F_n]: per-cell probability-weighted average, row n of condition_rows."""
    space._check_level(n)
    return condition_rows(space, np.broadcast_to(space.rv(x), (n + 1, space.size)))[n]


def _fit_rows(space, rows):
    """(rows as floats, the cell_labels of levels 0..len(rows) - 1)."""
    rows = np.asarray(rows, dtype=np.float64)
    labels = space.cell_labels[:len(rows)]
    if rows.shape != labels.shape:
        raise SpaceError(f"rows of shape {rows.shape} do not fit levels 0..{space.depth}")
    return rows, labels


def condition_rows(space: FilteredSpace, rows) -> np.ndarray:
    """Row n is E[rows[n] | F_n], every row in one cell_sums pass.

    Each cell sums its members in outcome order whether its level is
    conditioned alone or stacked, so a row gets the same bits in any stack.
    """
    rows, labels = _fit_rows(space, rows)
    sums = _kernels.cell_sums(labels.ravel(), len(space.cell_masses), (space.prob * rows).ravel())
    return (sums / space.cell_masses)[labels]


def conditional_ess_sup(space: FilteredSpace, x, n) -> np.ndarray:
    """Smallest F_n-measurable majorant: per-cell maximum, row n of ess_sup_rows."""
    space._check_level(n)
    return ess_sup_rows(space, np.broadcast_to(space.rv(x), (n + 1, space.size)))[n]


def ess_sup_rows(space: FilteredSpace, rows) -> np.ndarray:
    """Row n is the smallest F_n-measurable majorant of rows[n], every row in
    one cell_max pass; a maximum is exact, so a row gets the same bits in any
    stack."""
    rows, labels = _fit_rows(space, rows)
    return _kernels.cell_max(labels.ravel(), len(space.cell_masses), rows.ravel())[labels]


def is_measurable(space: FilteredSpace, x, n) -> bool:
    """Whether x is F_n-measurable up to SLACK: row n of measurable_rows."""
    space._check_level(n)
    return bool(measurable_rows(space, np.broadcast_to(space.rv(x), (n + 1, space.size)))[n])


def measurable_rows(space: FilteredSpace, rows) -> np.ndarray:
    """Row n: whether rows[n] is constant on every partition-n cell up to the slack at
    its own scale, where the F_n majorants of rows[n] and -rows[n] must meet."""
    spread = ess_sup_rows(space, rows) + ess_sup_rows(space, -rows)
    return np.array([within(s, 0.0, scale_of(x)) for s, x in zip(spread, rows)])


def regularity_constant(space: FilteredSpace) -> float:
    """Smallest R with P(parent cell) <= R * P(cell) over all splits.

    On a finite space with positive weights this is exactly the best
    constant in the regularity condition for non-negative martingales.
    """
    mass = space.cell_masses[space.cell_labels]  # row n: each outcome's level-n cell
    return float(np.max(mass[:-1] / mass[1:], initial=1.0))


def _groups(labels, n_groups):
    """Member indices of each label 0..n_groups-1, ascending."""
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.cumsum(np.bincount(labels, minlength=n_groups))[:-1])


def _parents(space):
    """parents[n][c] = the partition-n cell holding partition-(n+1) cell c, n < N.

    One scatter over cell_labels gives every cell of levels 1..N its parent.
    """
    parent = np.empty(len(space.cell_masses), dtype=np.int64)
    parent[space.cell_labels[1:]] = space.cell_labels[:-1] - space.cell_offsets[:-2, None]
    return np.split(parent, space.cell_offsets[1:-1])[1:]


def _radices(space):
    """Per-cell stopping-time counts and strides, bottom-up, as Python ints,
    and the _parents map they are built on.

    counts[n][c] counts the stopping times of the subtree at partition-n
    cell c: a cell at level n < N stops everyone now or defers to its
    children independently, and a cell at level N stops now or never.
    strides[n][c], for partition-(n+1) cell c, is the product of the
    counts of its later siblings.  Python ints: an over-cap tree cannot
    overflow them.
    """
    parents = _parents(space)
    counts = [[2] * space.level_sizes[space.depth]]
    strides = []
    for n in range(space.depth - 1, -1, -1):
        later = [1] * space.level_sizes[n]
        stride = [0] * len(counts[0])
        for kid, cell in reversed(list(enumerate(parents[n].tolist()))):
            stride[kid] = later[cell]
            later[cell] *= counts[0][kid]
        counts.insert(0, [1 + x for x in later])
        strides.insert(0, stride)
    return counts, strides, parents


def count_stopping_times(space: FilteredSpace) -> int:
    """Number of distinct stopping times, by DP over the partition tree."""
    return _radices(space)[0][0][0]


def _enumeration(space: FilteredSpace, cap=ENUMERATION_CAP):
    """The _radices counts and strides as int64 arrays, and the parents,
    once the stopping-time count is checked against ``cap``: over it,
    EnumerationOverflow, and callers fall back to a heuristic family."""
    if cap <= 0:
        raise ValueError("cap must be positive")
    counts, strides, parents = _radices(space)
    if counts[0][0] > cap:
        raise EnumerationOverflow(counts[0][0], cap)
    # every count and stride is at most the count <= cap, so int64 holds them
    return ([np.array(c, dtype=np.int64) for c in counts],
            [np.array(s, dtype=np.int64) for s in strides], parents)


def _decode_times(space: FilteredSpace, enum, index):
    """The int64 (len(index), M) times of stopping times number ``index``,
    in any order and with repeats, given _enumeration(space).

    Stopping time r is a mixed-radix decode of r down the partition tree.  A
    cell's local index 0 stops the whole cell now; at level N, index 1 is
    never; otherwise index - 1 splits over the children, the first child most
    significant, with radices the children's stopping-time counts.
    """
    counts, strides, parents = enum
    local = index[:, None]
    stop = np.where(local == 0, 0, INFINITY)
    for n, parent in enumerate(parents):
        # -1 below a cell that stopped now or earlier; such cells inherit its time
        up = local[:, parent] - 1
        local = np.where(up >= 0, up // strides[n] % counts[n + 1], -1)
        stop = np.where(local == 0, n + 1, stop[:, parent])
    return stop[:, space.level_labels[space.depth]]


def stopping_time_blocks(space: FilteredSpace, cap=ENUMERATION_CAP):
    """Yield every distinct stopping time, in order, as rows of int64
    (rows, M) blocks of at most max(1, _BLOCK_ELEMS // M) rows.

    The count is checked before the first block is yielded, by _enumeration().
    """
    enum = _enumeration(space, cap)
    total = int(enum[0][0][0])
    per = max(1, _BLOCK_ELEMS // space.size)
    for start in range(0, total, per):
        yield _decode_times(space, enum, np.arange(start, min(start + per, total)))


def enumerate_stopping_times(space: FilteredSpace, cap=ENUMERATION_CAP):
    """Yield every distinct stopping time, or raise EnumerationOverflow.

    One StoppingTime per row of stopping_time_blocks, in the same order.
    """
    for block in stopping_time_blocks(space, cap):
        for times in block:
            yield StoppingTime(space, times, validate=False)
