"""Campanato-type dual space machinery.

The phi weight, the stopping-time supremum norm, the bilinear pairing,
the duality chain certificate and the reverse Minkowski property.  The
supremum is exact when the stopping-time count fits under the enumeration
cap; otherwise a heuristic candidate family (threshold ladders of the
function's own martingale plus cell first-entry times) provides a
certified lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .atoms import decompose, ladder_constant
from .martingale import (
    FLAVORS, Martingale, _ladder_statistic, from_terminal, ladder_times, stopped,
)
from .norms import _check_exponent, _masses, lpq_norm, lq_aggregate
from .space import (
    _BLOCK_ELEMS, ENUMERATION_CAP, INFINITY, EnumerationOverflow, FilteredSpace, SpaceError,
    StoppingTime, _decode_times, _enumeration, condition_rows, require_finite, require_space,
    scale_of, scaled, times_pow2, within,
)


def phi(space: FilteredSpace, subset, p, q) -> float:
    """||1_A||_{p,q} / P(A) for a non-null A, given as a list of outcome identifiers."""
    mask = np.zeros(space.size, dtype=bool)
    for o in subset:
        i = space.position(o)
        if i is None:
            raise SpaceError(f"unknown outcome {o!r}")
        mask[i] = True
    pa = float(space.prob[mask].sum())
    if pa <= 0.0:
        raise SpaceError("phi is undefined on null sets")
    return lpq_norm(space, mask.astype(float), p, q) / pa


@dataclass
class CampanatoResult:
    norm_value: float
    attaining_nu: StoppingTime | None
    mode: str  # "exact-enumeration" or "heuristic-family"
    candidates_examined: int
    #: sqrt(A) = ||(g - g_nu) 1_B||_2 of each extra candidate, in the order given
    extra_l2: np.ndarray | None = field(default=None, repr=False, compare=False)


# -- batched scoring -----------------------------------------------------------
# The Campanato quotient of a stopping time nu with B = {nu < inf} is
# sqrt(A / P(B)) / phi(B), with A = E[(g - g_nu)^2 1_B] and phi(B) the l_q
# aggregate of the block masses P(B & block j) over P(B).  A candidate is
# scored from those sums only, one row of J + 2 columns: A, P(B) and the
# block masses.

#: the most last-level cells of a space whose stopping times are summed up the
#: partition tree.  Each of L last-level cells stops at N or never on its own,
#: so a space has at least 2^L stopping times, and one with more cells is
#: never enumerated under the default cap.
_TREE_CELLS = ENUMERATION_CAP.bit_length()


def _cell_sums(space, dev):
    """The (cells, J + 2) sums of every cell first-entry time, all levels in
    one pass: the time that stops at n on level-n cell c, and nowhere else,
    is row cell_offsets[n] + c.  A cell adds its members in outcome order."""
    cells = space.cell_labels.ravel()
    total = len(space.cell_masses)
    a = _kernels.cell_sums(cells, total, (space.prob * dev ** 2).ravel())
    return np.column_stack((a, *_masses(space, cells, total,
                                        np.tile(space.prob, space.depth + 1))))


def _row_sums(space, dev, times, cells=None):
    """The (rows, J + 2) sums of each row of a (rows, M) times stack.

    On a space with at most _TREE_CELLS last-level cells, a row's sums are
    added up the partition tree from ``cells``, the _cell_sums of ``dev``
    (taken here when not given): a cell the row stops on gives its own sums,
    and any other cell the sum of its children's, the first child first, as
    the exact route's tables add them.  So a stopping time gets the same bits
    there, as a cell first-entry time, and in any stack; the fold runs over
    the plan of _subtree_tables with no enumeration.  On a larger space, whose
    stopping times no enumeration reaches, g - g_nu is one gather of the
    deviation rows ``dev`` at min(times, N), and each sum is added per outcome.
    """
    if space.level_sizes[-1] > _TREE_CELLS:
        k, m = times.shape
        on = times != INFINITY
        rows = np.repeat(np.arange(k), m)
        a = _kernels.cell_sums(rows, k, (space.prob * stopped(dev, times) ** 2 * on).ravel())
        return np.column_stack((a, *_masses(space, rows, k, (space.prob * on).ravel())))
    if cells is None:
        cells = _cell_sums(space, dev)
    plan = _subtree_tables(space, cells)
    member = np.empty(len(cells), dtype=np.int64)
    member[space.cell_labels] = np.arange(space.size)  # a member of each cell
    n, c, last = np.array([(n, c, len(table) - 1) for _, n, c, table, _ in plan]).T
    # an entry's local index is the level its first cell's members stop at, less its own
    return _plan_sums(plan, list(np.clip(times[:, member[c]] - n, -1, last).T))


def _quotients(sums, p, q):
    """sqrt(A / P(B)) / phi(B) per row of (rows, J + 2) sums: 0 where A = 0,
    whatever phi(B) is, as where B is empty or phi(B) underflows to 0, and inf
    where the quotient is beyond the float range."""
    a, pb = sums[:, 0], sums[:, 1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vals = np.sqrt(a / pb) / (lq_aggregate(sums[:, 2:], p, q) / pb)
    return np.where(a == 0.0, 0.0, vals)


def _subtree_tables(space, cells, enum=None):
    """How the ``cells`` rows that each stopping time stops on are summed, as
    a plan for _plan_sums.

    The table of a cell holds one row of summed ``cells`` per stopping time
    of its subtree, in its mixed-radix order: row 0 stops the cell now, and
    the rest is the Minkowski sum of its children's tables, the first child
    most significant and added first; a last-level cell's row 1 is never, all
    zeros.  Given ``enum``, the space's _enumeration, tables are built
    bottom-up where one fits in _BLOCK_ELEMS elements; without, for the row
    path, only on the last level.  The cells above the tables, the top, are
    decoded as _decode_times does.  The plan lists entries from the root
    down, parents first: a run of top cells, each the only child of the one
    before, is one entry, and so is each child of a top cell that has a
    table.  An entry is its parent's position (-1 at the root), the level and
    number of its first cell, its table, with a zero row appended that a local
    index of -1 reads, and its children's positions.  A run's table is its
    cells' own rows: local index i < k stops a run of k cells on its cell i.
    """
    off, width = space.cell_offsets, cells.shape[1]
    kids = [[] for _ in cells]  # the first child first
    for k, c in enumerate(space.cell_parent[off[1]:].tolist(), int(off[1])):
        kids[c].append(k)
    last = int(off[-2])
    fits = ((enum[0] + 1) * width <= _BLOCK_ELEMS if enum
            else np.zeros(len(cells), dtype=bool))
    leaves = np.zeros((len(cells) - last, 3, width))  # stop now, never, and the zero row
    leaves[:, 0] = cells[last:]
    tables = [None] * last + list(leaves)
    for c in np.flatnonzero(fits[:last])[::-1].tolist():  # the deepest first
        acc = tables[kids[c][0]][:-1]
        for k in kids[c][1:]:
            acc = (acc[:, None] + tables[k][None, :-1]).reshape(-1, width)
        tables[c] = np.zeros((len(acc) + 2, width))
        tables[c][0], tables[c][1:-1] = cells[c], acc
        for k in kids[c]:
            tables[k] = None  # only the frontier's tables outlive their parent's
    plan, todo = [], [(-1, 0, 0)]  # (parent's entry, level, cell)
    for up, n, c in todo:
        first, own = (n, c), [cells[c]]
        while tables[c] is None and len(kids[c]) == 1 and tables[kids[c][0]] is None:
            n, c = n + 1, kids[c][0]
            own.append(cells[c])
        if up >= 0:
            plan[up][-1].append(len(plan))
        if tables[c] is None:
            todo += [(len(plan), n + 1, k) for k in kids[c]]
            tables[c] = np.array(own + [np.zeros(width)])
        plan.append((up, *first, tables[c], []))
    return plan


def _plan_sums(plan, local):
    """The sums of the rows of local index ``local[i]`` >= -1 at each entry i
    of _subtree_tables' plan, as _row_sums adds them: an entry's table row if
    it has no children, and else the sum of theirs, the first child first, or
    its own row i where the local index i is below its k cells."""
    sums = [None] * len(plan)
    for i in range(len(plan) - 1, -1, -1):
        (*_, table, kids), at = plan[i], local[i]
        if not kids:
            sums[i] = table.take(at, axis=0)
            continue
        sums[i] = sums[kids[0]]  # the children are 0 on the rows it stops
        for k in kids[1:]:
            sums[i] += sums[k]
        now = (at >= 0) & (at < len(table) - 1)
        sums[i][now] = table[at[now]]
    return sums[0]


def _table_rows(plan, enum, index):
    """The (len(index), J + 2) sums of stopping times number ``index`` of
    ``enum``, by the plan _subtree_tables makes from it."""
    count, stride = enum
    local = [index] + [None] * (len(plan) - 1)
    for (*_, table, kids), at in zip(plan, local):
        below = at - (len(table) - 1) if kids else None  # a run of k cells passes i - k on
        for j, c in enumerate(plan[k][2] for k in kids):
            # the first child's digit needs no modulus, and a stride of 1 no division
            digit = below // stride[c] if stride[c] > 1 else below
            local[kids[j]] = np.where(below >= 0, digit % count[c] if j else digit, -1)
    return _plan_sums(plan, local)


class _Supremum:
    """Running sup of the quotient over scored candidates.

    The highest value wins, then the lexicographically smallest times; a
    candidate with an empty B is not examined.  A value of 0, as scored on
    g * 2^-e, attains nothing; a positive one keeps its nu, also where it
    underflows to 0 when scaled back by 2^e.
    """

    def __init__(self, space, dev, p, q):
        self.space, self.dev, self.p, self.q = space, dev, p, q
        self.cells = _cell_sums(space, dev)
        self.value = 0.0
        self.times = None
        self.examined = 0

    def _fold(self, sums, times_of):
        """Fold the rows of (rows, J + 2) sums; returns how many have a
        non-empty B.  A row with an empty B has A = 0, so it scores 0."""
        vals = _quotients(sums, self.p, self.q)
        top = float(vals.max())
        if top > self.value or (top == self.value and self.times is not None):
            tied = times_of(np.flatnonzero(vals == top))
            if top == self.value:
                tied = np.vstack([self.times, tied])
            self.value = top
            self.times = tied[np.lexsort(tied.T[::-1])[0]]
        return int(np.count_nonzero(sums[:, 1]))

    def add_stack(self, times):
        """Score an int64 (rows, M) stack of times through the row path, in
        blocks of rows whose largest array there has at most _BLOCK_ELEMS
        elements; returns the A of each row."""
        space, cells = self.space, self.cells
        # the times, and on the tree side the (rows, J + 2) sums of each of the
        # at most 3L - 1 entries of the row path's plan, for L last-level cells
        tree = 3 * space.level_sizes[-1] * cells.shape[1] * (space.level_sizes[-1] <= _TREE_CELLS)
        per = max(1, _BLOCK_ELEMS // max(space.size, tree))
        a = [np.zeros(0)]
        for start in range(0, len(times), per):
            block = times[start:start + per]
            sums = _row_sums(space, self.dev, block, cells)
            self.examined += self._fold(sums, block.__getitem__)
            a.append(sums[:, 0])
        return np.concatenate(a)

    def add_cells(self):
        """Score every cell first-entry time, all levels in one pass; only a
        tied winner gets its times."""
        space = self.space

        def times_of(idx):
            n = np.searchsorted(space.cell_offsets, idx, side="right") - 1
            return np.where(space.cell_labels[n] == idx[:, None], n[:, None], INFINITY)

        self.examined += self._fold(self.cells, times_of)

    def add_enumeration(self, enum):
        """Score every stopping time of ``enum``, the _enumeration of a space
        with at most _TREE_CELLS last-level cells, from per-subtree tables of
        the cells' own sums, in blocks of _BLOCK_ELEMS // (J + 2) rows, added
        in the row path's order, so each row scores as it does there, bit for
        bit.  Only a tied winner is decoded to its times."""
        space = self.space
        total = int(enum[0][0])
        plan = _subtree_tables(space, self.cells, enum)
        per = max(1, _BLOCK_ELEMS // self.cells.shape[1])
        for start in range(0, total, per):
            index = np.arange(start, min(start + per, total))
            self.examined += self._fold(_table_rows(plan, enum, index),
                                        lambda i: _decode_times(space, enum, index[i]))

    def winner(self):
        if self.times is None:
            return None
        return StoppingTime(self.space, self.times, validate=False)


def _ladder_rows(space, gm):
    """Distinct ladder-rung times that are no cell first-entry time, stacked.

    The rungs are the threshold ladders of s(g) and of both minimal
    envelopes.  The zero time is the level-0 cell's first-entry time.
    """
    distinct = {}
    for flavor in FLAVORS:
        for times in ladder_times(_ladder_statistic(gm, flavor))[1]:
            distinct[times.tobytes()] = times
    rows = np.array(list(distinct.values()), dtype=np.int64).reshape(-1, space.size)
    rows = rows[(rows != INFINITY).any(axis=1)]  # an empty B is never examined
    on = rows != INFINITY
    # a cell time stops at one n on exactly the members of one level-n cell
    first = on.argmax(axis=1)
    n = rows[np.arange(len(rows)), first]
    at_n = space.cell_labels[n]
    cell = on == (at_n == at_n[np.arange(len(rows)), first][:, None])
    same_n = ~on | (rows == n[:, None])
    return rows[~(cell & same_n).all(axis=1)]


def _deviations(space, g):
    """(D, e): row n of D is (g - E_n[g]) * 2^-e, with max|g| * 2^-e in (1/2, 1].

    A quotient and each sqrt(A) are homogeneous of degree 1 in g, so they
    are scored on D and scaled back by 2^e.  Powers of two are exact, so no
    square overflows and none of a tiny g underflows.  On each cell, D is
    r - E_n[r] with r = g - g(c) for one member c: 0 where g is constant on
    the cell, and elsewhere rounded at the scale of g's spread there, not of |g|.
    """
    g, e = scaled(g)
    rep = np.empty(len(space.cell_masses))
    rep[space.cell_labels] = g
    r = g - rep[space.cell_labels]
    return r - condition_rows(space, r), e


def oscillation(space: FilteredSpace, g, nu: StoppingTime, p, q):
    """Campanato quotient of one candidate; None when B is empty."""
    _check_exponent("p", p)
    _check_exponent("q", q, inf_ok=True)
    require_space(nu, space)
    g = space.rv(g)
    require_finite(g, "g")
    dev, e = _deviations(space, g)
    sums = _row_sums(space, dev, nu.times[None])
    if sums[0, 1] <= 0.0:
        return None
    return float(times_pow2(_quotients(sums, p, q)[0], e))


def campanato_norm(space: FilteredSpace, g, p, q, mode="exact", cap=ENUMERATION_CAP,
                   extra_candidates=()) -> CampanatoResult:
    """sup over stopping times of the phi-weighted stopped oscillation.

    ``mode="exact"`` enumerates all stopping times when the count fits
    under ``cap`` on a space with at most _TREE_CELLS last-level cells, and
    otherwise falls back to the heuristic family (the result's mode field
    records which route ran).  The heuristic value is a lower bound of the
    exact one.  Requires E[g] = 0.

    The heuristic family is every cell first-entry time, scored for all
    cells at once, and the distinct ladder rungs that are no such time.
    ``extra_candidates`` are scored as given, repeats included, in one stack
    with those rungs; the result keeps each one's sqrt(A).  The count of
    candidates examined leaves out those with an empty B.
    """
    _check_exponent("p", p)
    _check_exponent("q", q, inf_ok=True)
    g = space.rv(g)
    gm = from_terminal(space, g)

    if mode not in ("exact", "heuristic"):
        raise ValueError(f"mode must be 'exact' or 'heuristic', got {mode!r}")
    extra_candidates = list(extra_candidates)  # read once: checked, then stacked
    for nu in extra_candidates:
        require_space(nu, space)
    dev, e = _deviations(space, g)
    sup = _Supremum(space, dev, p, q)
    actual = "heuristic-family"
    if mode == "exact":
        try:
            enum = _enumeration(space, cap)
        except EnumerationOverflow:
            pass
        else:
            if space.level_sizes[-1] <= _TREE_CELLS:  # every cap is checked; see _TREE_CELLS
                sup.add_enumeration(enum)
                actual = "exact-enumeration"
    extra = np.array([nu.times for nu in extra_candidates], dtype=np.int64).reshape(-1, space.size)
    stack = extra
    if actual == "heuristic-family":
        sup.add_cells()
        # the rungs of g * 2^-e: the same times, k shifted by -e, and no statistic overflows
        gm = Martingale(space, np.ldexp(gm.levels, -e), validate=False)
        stack = np.vstack([_ladder_rows(space, gm), extra])
    # the winner does not depend on the order of the rows
    a = sup.add_stack(stack)[len(stack) - len(extra):]
    value = float(times_pow2(sup.value, e))
    return CampanatoResult(value, sup.winner(), actual, sup.examined,
                           times_pow2(np.sqrt(a), e))


def pairing(f: Martingale, g) -> float:
    """kappa_g(f) = E[f_N g], summed with f_N and g each at its own power of
    two, so no product overflows where the expectation is in the float range."""
    g, eg = scaled(f.space.rv(g))
    terminal, ef = scaled(f.terminal)
    return float(times_pow2(f.space.prob @ (terminal * g), ef + eg))


@dataclass
class DualityCertificate:
    pairing: float  # E[fg], signed
    pairing_abs: float
    atomwise_bound: float
    budget: float
    campanato: CampanatoResult
    hardy_norm: float
    constant: float
    chain_ok: bool
    #: measured slack of each link of the chain
    first_gap: float
    second_gap: float


def certify_duality(f: Martingale, g, p, q, mode="heuristic",
                    cap=ENUMERATION_CAP) -> DualityCertificate:
    """Certify |E[fg]| <= atom-wise bound <= C * ||f||_{H^s} * ||g||_{L_2,phi}.

    Valid for 0 < p <= q <= 1.  The atom-wise bound follows the ladder
    decomposition of f; the Campanato value is evaluated over the usual
    candidate family extended by that ladder's own stopping times, which
    are exactly the ones the chain argument tests.
    """
    if not (0 < p <= q <= 1):
        raise ValueError(f"duality chain requires 0 < p <= q <= 1, got ({p}, {q})")
    space = f.space
    d = decompose(f, p, q, flavor="s", defn="simple")
    # the rungs are scored as candidates, and each one's sqrt(A) comes back; g is
    # checked there, by from_terminal, before it is paired with f
    camp = campanato_norm(space, g, p, q, mode=mode, cap=cap,
                          extra_candidates=[t.nu for t in d.triples])
    signed = pairing(f, g)
    lhs = abs(signed)
    atomwise = 0.0
    for t, osc in zip(d.triples, camp.extra_l2):
        # ||a||_2 at the atom's own power of two: at a tiny p, a^2 leaves the float range
        small, e = scaled(t.terminal)
        a_l2 = float(times_pow2(math.sqrt(float(space.prob @ small ** 2)), e))
        atomwise += t.lam * a_l2 * float(osc)
    const = ladder_constant(1.0)
    budget = const * d.source_norm * camp.norm_value

    ok = within([lhs, atomwise], np.array([atomwise, budget]), scale_of(lhs, atomwise, budget))
    return DualityCertificate(
        signed, lhs, atomwise, budget, camp, d.source_norm, const, ok,
        atomwise - lhs, budget - atomwise,
    )


def representer(space: FilteredSpace, functional_values) -> np.ndarray:
    """Recover the zero-mean g with E[X g] = value for every given X.

    ``functional_values`` is an iterable of (terminal_values, value)
    pairs whose terminals span the zero-mean functions; solved as a
    linear system in the outcome basis.
    """
    # each equation at its own power of two: the checks below see no scale
    rows = [scaled(space.prob)[0]]  # zero-mean constraint
    rhs = [0.0]
    for x, v in functional_values:
        row, e = scaled(space.prob * space.rv(x))
        rows.append(row)
        rhs.append(times_pow2(float(v), -e))
    a = np.vstack(rows)
    b = np.array(rhs)
    # a numerical-rank cutoff, not a comparison tolerance
    if np.linalg.matrix_rank(a, tol=1e-10) < space.size:
        raise SpaceError("functional values do not span the zero-mean space")
    g, *_ = np.linalg.lstsq(a, b, rcond=None)
    resid = scale_of(a @ g - b)
    if not within(resid, 0.0, scale_of(b)):
        raise SpaceError(f"inconsistent functional values (residual {resid!r})")
    return g


@dataclass
class ReverseMinkowskiReport:
    lhs: float
    rhs: float
    ok: bool

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


def reverse_minkowski_check(space: FilteredSpace, fs, p, q) -> ReverseMinkowskiReport:
    """Check sum ||f_i||_{p,q} <= ||sum |f_i|||_{p,q} for 0 < p < 1, q <= 1.

    The inequality reverses for exponents above 1, so such inputs are
    rejected rather than silently tested.
    """
    if not 0 < p < 1:
        raise ValueError(f"reverse Minkowski requires 0 < p < 1, got p={p}")
    if not 0 < q <= 1:
        raise ValueError(f"reverse Minkowski requires 0 < q <= 1, got q={q}")
    fs = [space.rv(x) for x in fs]
    if not fs:
        raise ValueError("need at least one function")
    lhs = sum(lpq_norm(space, x, p, q) for x in fs)
    total = np.sum(np.abs(np.vstack(fs)), axis=0)
    rhs = lpq_norm(space, total, p, q)
    return ReverseMinkowskiReport(lhs, rhs, within(lhs, rhs))
