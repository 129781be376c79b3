"""Finite filtered probability spaces.

A :class:`FilteredSpace` is a finite outcome set with strictly positive
probabilities, a refining partition filtration (partition ``n`` holds the
atoms of the sigma-algebra at time ``n``) and a block partition used by the
amalgam norm.  Random variables are plain numpy arrays indexed by outcome
order; conditioning and measurability primitives live here as module
functions.
"""

from __future__ import annotations

import numpy as np

from . import _kernels

#: Stopping-time value meaning "never stops".
INFINITY = np.iinfo(np.int64).max


# -- tolerance policy ----------------------------------------------------------
# The only tolerances in the package.  Checks scale them by the size of the
# values compared (usually scale_of()) and test through at_most(), which a
# NaN never passes.

#: comparisons after a single rounding step
TOL = 1e-12
#: accumulated arithmetic (conditioning chains, ladders) and certificate checks
SLACK = 1e3 * TOL
#: selftest identities: reconstruction and the L2 isometry
IDENTITY_TOL = 1e-10


def scale_of(*values) -> float:
    """max(1, max|x|) over all given arrays and scalars."""
    return max(1.0, *(float(np.max(np.abs(x))) for x in values))


def at_most(x, bound) -> bool:
    """Whether every x <= bound; NaN on either side never passes."""
    return bool(np.all(np.less_equal(x, bound)))


class SpaceError(ValueError):
    """Invalid space, partition or random-variable input."""


def require_finite(x, what):
    """Reject NaN and +-inf at an input boundary."""
    if not np.all(np.isfinite(x)):
        raise SpaceError(f"{what} must be finite")


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
    prob : mapping outcome -> weight, or array in outcome order
    filtration : list of partitions; each partition is a list of cells and
        each cell a list of outcome identifiers.  Partition 0 must be the
        trivial partition and each partition must refine the previous one.
    blocks : partition of the outcome set (single list of cells)
    """

    def __init__(self, outcomes, prob, filtration, blocks):
        self.outcomes = tuple(outcomes)
        self.size = len(self.outcomes)
        if self.size < 1:
            raise SpaceError("need at least one outcome")
        self.index = {o: i for i, o in enumerate(self.outcomes)}
        if len(self.index) != self.size:
            raise SpaceError("duplicate outcomes")

        if isinstance(prob, dict):
            try:
                p = np.array([float(prob[o]) for o in self.outcomes])
            except KeyError as exc:
                raise SpaceError(f"missing probability for outcome {exc}") from exc
        else:
            p = np.asarray(prob, dtype=np.float64)
        if p.shape != (self.size,):
            raise SpaceError("probability vector has wrong length")
        if not np.all(p > 0.0):
            raise SpaceError("probabilities must be strictly positive")
        if not at_most(abs(p.sum() - 1.0), TOL * self.size):
            raise SpaceError(f"probabilities sum to {p.sum()!r}, not 1")
        self.prob = p

        if not filtration:
            raise SpaceError("filtration must have at least one level")
        self.level_labels = []
        self.level_sizes = []
        for n, part in enumerate(filtration):
            labels, count = self._partition_labels(part, f"filtration level {n}")
            self.level_labels.append(labels)
            self.level_sizes.append(count)
        if self.level_sizes[0] != 1:
            raise SpaceError("partition 0 must be the trivial partition")
        for n in range(self.depth):
            # partition n+1 refines partition n: coarse labels constant on fine cells
            if not _constant_on_cells(
                self.level_labels[n + 1], self.level_sizes[n + 1], self.level_labels[n]
            ):
                raise SpaceError(f"partition {n + 1} does not refine partition {n}")

        self.block_labels, self.n_blocks = self._partition_labels(blocks, "blocks")

        # cached cell masses, used by every conditioning call
        self.cell_probs = [
            _kernels.cell_sums(lab, size, self.prob)
            for lab, size in zip(self.level_labels, self.level_sizes)
        ]
        self.block_probs = _kernels.cell_sums(self.block_labels, self.n_blocks, self.prob)
        self._regularity = None
        self._child_cells = None

    # -- construction helpers -------------------------------------------

    def _partition_labels(self, cells, what):
        labels = np.full(self.size, -1, dtype=np.int64)
        for c, cell in enumerate(cells):
            if not cell:
                raise SpaceError(f"{what}: empty cell")
            for o in cell:
                i = self.index.get(o)
                if i is None:
                    raise SpaceError(f"{what}: unknown outcome {o!r}")
                if labels[i] != -1:
                    raise SpaceError(f"{what}: outcome {o!r} in two cells")
                labels[i] = c
        if np.any(labels < 0):
            raise SpaceError(f"{what}: cells do not cover the outcome set")
        return labels, len(cells)

    # -- basic accessors --------------------------------------------------

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
        """Coerce a mapping outcome -> real or an array to a value vector."""
        if isinstance(values, dict):
            missing = [o for o in self.outcomes if o not in values]
            if missing:
                raise SpaceError(f"random variable missing outcomes {missing}")
            return np.array([float(values[o]) for o in self.outcomes])
        x = np.asarray(values, dtype=np.float64)
        if x.shape != (self.size,):
            raise SpaceError("random variable has wrong length")
        return x

    def blocks_adapted(self, n) -> bool:
        """Whether every block happens to be a union of partition-n cells."""
        self._check_level(n)
        return _constant_on_cells(self.level_labels[n], self.level_sizes[n], self.block_labels)

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
        t = np.asarray(times, dtype=np.int64)
        if t.shape != (space.size,):
            raise SpaceError("stopping time has wrong length")
        self.times = t
        if validate:
            finite = t[t != INFINITY]
            if finite.size and (finite.min() < 0 or finite.max() > space.depth):
                raise SpaceError("stopping-time values out of range")
            for n in range(space.depth + 1):
                if not _constant_on_cells(space.level_labels[n], space.level_sizes[n], t == n):
                    raise SpaceError(f"level set {{time == {n}}} not measurable at {n}")

    @property
    def support(self):
        """Boolean mask of B = {time != infinity}."""
        return self.times != INFINITY

    def key(self):
        return self.times.tobytes()

    def __repr__(self):
        shown = ["inf" if t == INFINITY else str(t) for t in self.times]
        return f"StoppingTime([{', '.join(shown)}])"


def _constant_on_cells(labels, n_cells, values) -> bool:
    """Whether ``values`` is constant on every cell of the partition ``labels``.

    Writes some member's value to each cell, then checks that every member
    equals its cell's value.
    """
    cell = np.empty(n_cells, dtype=values.dtype)
    cell[labels] = values
    return bool(np.array_equal(cell[labels], values))


def conditional_expectation(space: FilteredSpace, x, n) -> np.ndarray:
    """E[x | F_n]: per-cell probability-weighted average."""
    space._check_level(n)
    x = space.rv(x)
    labels = space.level_labels[n]
    sums = _kernels.cell_sums(labels, space.level_sizes[n], space.prob * x)
    return (sums / space.cell_probs[n])[labels]


def conditional_ess_sup(space: FilteredSpace, x, n) -> np.ndarray:
    """Smallest F_n-measurable majorant: per-cell maximum."""
    space._check_level(n)
    x = space.rv(x)
    labels = space.level_labels[n]
    return _kernels.cell_max(labels, space.level_sizes[n], x)[labels]


def is_measurable(space: FilteredSpace, x, n) -> bool:
    """Whether x is constant up to SLACK on every partition-n cell."""
    space._check_level(n)
    x = space.rv(x)
    labels = space.level_labels[n]
    hi = _kernels.cell_max(labels, space.level_sizes[n], x)
    lo = -_kernels.cell_max(labels, space.level_sizes[n], -x)
    return at_most(hi - lo, SLACK * scale_of(x))


def regularity_constant(space: FilteredSpace) -> float:
    """Smallest R with P(parent cell) <= R * P(cell) over all splits.

    On a finite space with positive weights this is exactly the best
    constant in the regularity condition for non-negative martingales.
    """
    if space._regularity is not None:
        return space._regularity
    best = 1.0
    for n in range(1, space.depth + 1):
        parent_mass = space.cell_probs[n - 1][space.level_labels[n - 1]]
        child_mass = space.cell_probs[n][space.level_labels[n]]
        best = max(best, float(np.max(parent_mass / child_mass)))
    space._regularity = best
    return best


def _groups(labels, n_groups):
    """Member indices of each label 0..n_groups-1, ascending."""
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.cumsum(np.bincount(labels, minlength=n_groups))[:-1])


def _children(space):
    """children[n][cell] = list of partition-(n+1) cell labels inside it.

    Built once per space: the parent map of level n+1 is one scatter.
    """
    if space._child_cells is None:
        out = []
        for n in range(space.depth):
            parent = np.empty(space.level_sizes[n + 1], dtype=np.int64)
            parent[space.level_labels[n + 1]] = space.level_labels[n]
            out.append([kids.tolist() for kids in _groups(parent, space.level_sizes[n])])
        space._child_cells = out
    return space._child_cells


def count_stopping_times(space: FilteredSpace) -> int:
    """Number of distinct stopping times, by DP over the partition tree.

    A cell at level n < N either stops everyone now or defers to its
    children independently; a cell at level N stops now or never.
    """
    children = _children(space)

    def g(n, cell):
        if n == space.depth:
            return 2
        prod = 1
        for kid in children[n][cell]:
            prod *= g(n + 1, kid)
        return 1 + prod

    return g(0, 0)


def enumerate_stopping_times(space: FilteredSpace, cap=10**6):
    """Yield every distinct stopping time, or raise EnumerationOverflow.

    The count is computed up front; when it exceeds ``cap`` nothing is
    yielded and callers fall back to a heuristic candidate family.
    """
    if cap <= 0:
        raise ValueError("cap must be positive")
    count = count_stopping_times(space)
    if count > cap:
        raise EnumerationOverflow(count, cap)
    children = _children(space)
    members = [_groups(space.level_labels[n], space.level_sizes[n])
               for n in range(space.depth + 1)]
    times = np.empty(space.size, dtype=np.int64)

    def assign(n, cell):
        idx = members[n][cell]
        times[idx] = n
        yield
        if n == space.depth:
            times[idx] = INFINITY
            yield
        else:
            kids = children[n][cell]

            def rec(i):
                if i == len(kids):
                    yield
                    return
                for _ in assign(n + 1, kids[i]):
                    yield from rec(i + 1)

            yield from rec(0)

    for _ in assign(0, 0):
        yield StoppingTime(space, times.copy(), validate=False)
