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
    StoppingTime, condition_rows, require_space, scale_of, scaled, stopping_time_blocks,
    times_pow2, within,
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
        keep = np.flatnonzero(pb > 0.0)
        self.examined += keep.size
        if not keep.size:
            return
        vals = _quotients(a[keep], pb[keep], masses[keep], self.p, self.q)
        top = float(vals.max())
        if top < self.value or (top == self.value and self.times is None):
            return
        tied = times_of(keep[vals == top])
        if top == self.value:
            tied = np.vstack([self.times, tied])
        self.value = top
        self.times = tied[np.lexsort(tied.T[::-1])[0]]

    def add_stack(self, times):
        """Score an int64 (rows, M) stack of times in blocks of at most
        _BLOCK_ELEMS elements; returns the A of each row."""
        per = max(1, _BLOCK_ELEMS // self.space.size)
        a = [np.zeros(0)]
        for start in range(0, len(times), per):
            block = times[start:start + per]
            sums = _row_sums(self.space, self.dev, block)
            self._fold(*sums, block.__getitem__)
            a.append(sums[0])
        return np.concatenate(a)

    def add_cells(self):
        """Score every cell first-entry time, all levels in one pass.

        Cell c of level n, numbered cell_offsets[n] + c, stands for the time that
        stops at n on c and nowhere else; only a tied winner gets its times.
        """
        space = self.space
        cells = space.cell_labels.ravel()
        total = len(space.cell_masses)
        a = _kernels.cell_sums(cells, total, (space.prob * self.dev ** 2).ravel())
        pb, masses = _masses(space, cells, total, np.tile(space.prob, space.depth + 1))

        def times_of(idx):
            n = np.searchsorted(space.cell_offsets, idx, side="right") - 1
            return np.where(space.cell_labels[n] == idx[:, None], n[:, None], INFINITY)

        self._fold(a, pb, masses, times_of)

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
            # the count is checked before the first block is yielded
            for block in stopping_time_blocks(space, cap):
                sup.add_stack(block)
            actual = "exact-enumeration"
        except EnumerationOverflow:
            pass
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
