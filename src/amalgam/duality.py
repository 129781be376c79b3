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
    StoppingTime, _decode_times, _enumeration, condition_rows, require_space, scale_of,
    scaled, times_pow2, within,
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
# scored from those three sums only.  Each is a cell_sums over a label array
# in outcome order, so a stopping time gets the same bits as a stacked row
# as it does as a cell first-entry time.

def _row_sums(space, dev, times):
    """A, P(B) and the block masses of each row of a (rows, M) times stack.

    g - g_nu is one gather of the deviation rows ``dev`` at min(times, N).
    """
    k, m = times.shape
    on = times != INFINITY
    rows = np.repeat(np.arange(k), m)
    a = _kernels.cell_sums(rows, k, (space.prob * stopped(dev, times) ** 2 * on).ravel())
    return (a, *_masses(space, rows, k, (space.prob * on).ravel()))


def _quotients(a, pb, masses, p, q):
    """sqrt(A / P(B)) / phi(B) per row: 0 where A = 0, whatever phi(B) is, as where
    phi(B) underflows to 0, and inf where the quotient is beyond the float range."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vals = np.sqrt(a / pb) / (lq_aggregate(masses, p, q) / pb)
    return np.where(a == 0.0, 0.0, vals)


def _cell_sums(space, dev):
    """A, P(B) and the block masses of every cell first-entry time, all levels
    in one pass: the time that stops at n on level-n cell c, and nowhere
    else, is row cell_offsets[n] + c."""
    cells = space.cell_labels.ravel()
    total = len(space.cell_masses)
    a = _kernels.cell_sums(cells, total, (space.prob * dev ** 2).ravel())
    return (a, *_masses(space, cells, total, np.tile(space.prob, space.depth + 1)))


#: elements (rows x outcomes) of the largest enumeration whose every row the
#: exact route folds through the row path: below about this many, building
#: the tables costs more than it saves
_FEW_ELEMS = _BLOCK_ELEMS // 2
#: relative error of one rounded float operation, and a bound on that of one
#: exp, log or power call: 32 ulps, with room above numpy's and the C library's
_ULP, _CALL = 2.0 ** -53, 2.0 ** -48


def _margin(space, a_min, p, q):
    """The relative margin of the exact route's candidate filter, in (0, 1].

    A stopping time whose row-path quotient is at least v has a table
    quotient of at least v * (1 - margin); README "Tolerances" derives it.
    It is 1, and every row with A > 0 a candidate, where an intermediate of
    _quotients may leave the normal floats: ``a_min``, the least positive
    cell A, bounds A from below.
    """
    inv_q = 0.0 if math.isinf(q) else 1.0 / q
    log_j = math.log2(space.n_blocks)
    # log2 bounds of a positive P(B) or block mass, of A / P(B) > 0, which is
    # at most 16 as |g - g_n| <= 4 at g's own scale, of the l_q aggregate
    # phi(B) P(B), of phi(B) and of the quotient
    lo = math.log2(float(space.prob.min()))
    hi = math.log2(float(space.cell_masses[0])) + 1e-6
    a_lo = math.log2(a_min) - hi
    agg = (lo / p, hi / p + log_j * inv_q)
    phi = (agg[0] - hi, agg[1] - lo)
    logs = [*agg, *phi, a_lo, a_lo / 2 - phi[1], 2.5 - phi[0]]
    if not math.isinf(q):  # the powers I^(q/p), their sum, and their logs times q/p
        logs += [log_j + hi * q / p, math.log2(q / p) + math.log2(max(-lo, 1.0))]
    normal = all(abs(x) <= 1000.0 for x in logs)  # 22 bits inside the normal floats
    gamma = space.size * _ULP / (1.0 - space.size * _ULP)
    apart = 2.0 * (2.0 * gamma * (1.0 + 1.0 / p) + 8.0 * _ULP
                   + _CALL * (2.0 + 4.0 * 746.0 / p + 4.0 * (space.n_blocks + 2) * inv_q))
    return min(1.0, 2.0 * apart + 8.0 * _ULP) if normal else 1.0


def _subtree_tables(space, enum, stops):
    """How the table route sums the rows of ``stops`` that each stopping time
    stops on, as a list of cells from the root down.

    The table of a cell holds one row of summed ``stops`` per stopping time
    of its subtree, in its mixed-radix order: row 0 stops the cell now, and
    the rest is the Minkowski sum of its children's tables, the first child
    most significant; a last-level cell's row 1 is never, all zeros.  Tables
    are built bottom-up where one fits in _BLOCK_ELEMS elements.  The cells
    above them, the top, are decoded as _decode_times does.  Each top cell,
    and each child of one that has a table, is one entry: the entry of its
    parent (None at the root), its stride and radix there, and its table
    with a zero row appended, which a local index of -1 reads, or else its
    own row of ``stops``.
    """
    counts, strides, parents = enum
    off, width = space.cell_offsets, stops.shape[1]
    fits = [((c + 1) * width <= _BLOCK_ELEMS).tolist() for c in counts]
    depth = space.depth
    kids = [[[] for _ in fits[n]] for n in range(depth)]
    for n in range(depth):
        for k, c in enumerate(parents[n].tolist()):
            kids[n][c].append(k)
    leaves = np.zeros((len(fits[depth]), 3, width))  # stop now, never, and the zero row
    leaves[:, 0] = stops[off[depth]:]
    tables = [[None] * len(f) for f in fits]
    tables[depth] = list(leaves)
    for n in range(depth - 1, -1, -1):
        below = tables[n + 1]
        for c in np.flatnonzero(fits[n]).tolist():
            acc = below[kids[n][c][0]][:-1]
            for k in kids[n][c][1:]:
                acc = (acc[:, None] + below[k][None, :-1]).reshape(-1, width)
            table = np.zeros((len(acc) + 2, width))
            table[0], table[1:-1] = stops[off[n] + c], acc
            tables[n][c] = table
            for k in kids[n][c]:
                below[k] = None  # only the frontier's tables outlive their parent's
    plan = []
    todo = [(0, 0, None)]  # (level, cell, entry of its parent)
    while todo:
        n, c, parent = todo.pop(0)
        at = (parent, int(strides[n - 1][c]) if n else 1, int(counts[n][c]))
        if fits[n][c]:
            plan.append((*at, tables[n][c], None))
            continue
        todo += [(n + 1, k, len(plan)) for k in (kids[n][c] if n < depth else [])]
        plan.append((*at, None, stops[off[n] + c]))
    return plan


def _table_rows(plan, index, width):
    """The summed stops of stopping times number ``index``, by _subtree_tables' plan."""
    local = []
    rows = np.zeros((len(index), width))
    for parent, stride, radix, table, stop in plan:
        if parent is None:
            at = index
        else:
            up = local[parent] - 1
            at = np.where(up >= 0, up // stride % radix, -1)
        local.append(at)
        if table is None:
            rows[at == 0] += stop
        else:
            rows += table.take(at, axis=0)
    return rows


class _Supremum:
    """Running sup of the quotient over scored candidates.

    The highest value wins, then the lexicographically smallest times; a
    candidate with an empty B is not examined, and value 0 attains nothing.
    """

    def __init__(self, space, dev, p, q):
        self.space, self.dev, self.p, self.q = space, dev, p, q
        self.value = 0.0
        self.times = None
        self.examined = 0

    def _fold(self, a, pb, masses, times_of):
        """Fold the rows with a non-empty B; returns how many there are."""
        keep = np.flatnonzero(pb > 0.0)
        if not keep.size:
            return 0
        vals = _quotients(a[keep], pb[keep], masses[keep], self.p, self.q)
        top = float(vals.max())
        if top < self.value or (top == self.value and self.times is None):
            return keep.size
        tied = times_of(keep[vals == top])
        if top == self.value:
            tied = np.vstack([self.times, tied])
        self.value = top
        self.times = tied[np.lexsort(tied.T[::-1])[0]]
        return keep.size

    def add_stack(self, times):
        """Score an int64 (rows, M) stack of times in blocks of at most
        _BLOCK_ELEMS elements; returns the A of each row."""
        per = max(1, _BLOCK_ELEMS // self.space.size)
        a = [np.zeros(0)]
        for start in range(0, len(times), per):
            block = times[start:start + per]
            sums = _row_sums(self.space, self.dev, block)
            self.examined += self._fold(*sums, block.__getitem__)
            a.append(sums[0])
        return np.concatenate(a)

    def add_cells(self):
        """Score every cell first-entry time, all levels in one pass; only a
        tied winner gets its times."""
        space = self.space

        def times_of(idx):
            n = np.searchsorted(space.cell_offsets, idx, side="right") - 1
            return np.where(space.cell_labels[n] == idx[:, None], n[:, None], INFINITY)

        self.examined += self._fold(*_cell_sums(space, self.dev), times_of)

    def _fold_decoded(self, enum, index):
        """Fold stopping times number ``index`` of ``enum`` through the row path,
        decoded in blocks of at most _BLOCK_ELEMS elements."""
        per = max(1, _BLOCK_ELEMS // self.space.size)
        for start in range(0, len(index), per):
            times = _decode_times(self.space, enum, index[start:start + per])
            self._fold(*_row_sums(self.space, self.dev, times), times.__getitem__)

    def add_enumeration(self, enum):
        """Score every stopping time of ``enum``, the space's _enumeration.

        Each one's A, P(B) and block masses are summed from per-subtree tables
        of the cells' own sums, in blocks of at most _BLOCK_ELEMS elements,
        and get an approximate quotient.  A row with A > 0 whose approximate
        value is not below (1 - _margin) times a lower bound of the supremum
        (the running maximum: the best value folded, or the best approximate
        value shrunk by the margin) is a candidate; the candidates are decoded
        to their times and folded through the row path, so the winner and its
        value are those of scoring every row there.  A row with A = 0 scores 0
        on both paths and attains nothing.  Where the times of every row fit
        in _FEW_ELEMS, every row is a candidate, and no table is built.
        """
        space, p, q = self.space, self.p, self.q
        total = int(enum[0][0][0])
        self.examined += total - 1  # every stopping time but never has a non-empty B
        if total * space.size <= _FEW_ELEMS:
            self._fold_decoded(enum, np.arange(total))
            return
        stops = np.column_stack(_cell_sums(space, self.dev))
        a_min = float(np.min(stops[:, 0], where=stops[:, 0] > 0.0, initial=math.inf))
        keep = 1.0 - _margin(space, a_min, p, q)
        plan = _subtree_tables(space, enum, stops)
        width = stops.shape[1]
        per = max(1, _BLOCK_ELEMS // width)
        best, held, held_vals = 0.0, np.zeros(0, dtype=np.int64), np.zeros(0)
        for start in range(0, total, per):
            index = np.arange(start, min(start + per, total))
            rows = _table_rows(plan, index, width)
            vals = _quotients(rows[:, 0], rows[:, 1], rows[:, 2:], p, q)
            best = max(best, float(np.max(vals, where=np.isfinite(vals), initial=0.0)))
            floor = max(self.value, best * keep) * keep
            # not below the floor: NaN and inf are candidates too
            new = np.flatnonzero((rows[:, 0] > 0.0) & ~(vals < floor))
            kept = ~(held_vals < floor)
            held = np.concatenate([held[kept], index[new]])
            held_vals = np.concatenate([held_vals[kept], vals[new]])
            if len(held) and (start + per >= total or len(held) * space.size >= _BLOCK_ELEMS):
                self._fold_decoded(enum, held)
                held, held_vals = held[:0], held_vals[:0]

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
    require_space(nu, space)
    dev, e = _deviations(space, g)
    a, pb, masses = _row_sums(space, dev, nu.times[None])
    if pb[0] <= 0.0:
        return None
    return float(times_pow2(_quotients(a, pb, masses, p, q)[0], e))


def campanato_norm(space: FilteredSpace, g, p, q, mode="exact", cap=ENUMERATION_CAP,
                   extra_candidates=()) -> CampanatoResult:
    """sup over stopping times of the phi-weighted stopped oscillation.

    ``mode="exact"`` enumerates all stopping times when the count fits
    under ``cap`` and otherwise falls back to the heuristic family (the
    result's mode field records which route ran).  The heuristic value is
    a lower bound of the exact one.  Requires E[g] = 0.

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
