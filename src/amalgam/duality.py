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
from dataclasses import dataclass

import numpy as np

from .atoms import decompose, ladder_constant
from .martingale import (
    Martingale,
    _ladder_statistic,
    _threshold_time,
    from_terminal,
    ladder_window,
    minimal_envelope,
)
from .norms import hardy_s_norm, lpq_norm
from .space import (
    INFINITY,
    EnumerationOverflow,
    FilteredSpace,
    SpaceError,
    StoppingTime,
    enumerate_stopping_times,
)
from .space import SLACK, TOL, at_most, scale_of


def phi(space: FilteredSpace, subset, p, q) -> float:
    """||1_A||_{p,q} / P(A) for a non-null outcome subset A."""
    mask = _subset_mask(space, subset)
    pa = float(space.prob[mask].sum())
    if pa <= 0.0:
        raise SpaceError("phi is undefined on null sets")
    return lpq_norm(space, mask.astype(float), p, q) / pa


def _subset_mask(space, subset):
    a = np.asarray(subset)
    if a.dtype == bool:
        if a.shape != (space.size,):
            raise SpaceError("subset mask has wrong length")
        return a
    mask = np.zeros(space.size, dtype=bool)
    for o in subset:
        i = space.index.get(o)
        if i is None:
            raise SpaceError(f"unknown outcome {o!r}")
        mask[i] = True
    return mask


@dataclass
class CampanatoResult:
    norm_value: float
    attaining_nu: StoppingTime | None
    mode: str  # "exact-enumeration" or "heuristic-family"
    candidates_examined: int


def _stopped_terminal(gm: Martingale, nu: StoppingTime) -> np.ndarray:
    N = gm.space.depth
    idx = np.minimum(nu.times, N)
    return gm.levels[idx, np.arange(gm.space.size)]


def oscillation(space: FilteredSpace, g, gm: Martingale, nu: StoppingTime, p, q):
    """Campanato quotient of one candidate; None when B is empty."""
    mask = nu.support
    pb = float(space.prob[mask].sum())
    if pb <= 0.0:
        return None
    diff = g - _stopped_terminal(gm, nu)
    mean_sq = float(space.prob[mask] @ diff[mask] ** 2) / pb
    return math.sqrt(mean_sq) / phi(space, mask, p, q)


def _heuristic_family(space, gm):
    """Threshold ladders of the martingale plus cell first-entry times."""
    cands = [StoppingTime(space, np.zeros(space.size, dtype=np.int64), validate=False)]
    stats = [_ladder_statistic(gm, "s-ladder")]
    for flavor in ("S", "star"):
        stats.append(minimal_envelope(gm, flavor).levels)
    for stat in stats:
        window = ladder_window(stat)
        if window is None:
            continue
        for k in range(window[0], window[1] + 1):
            cands.append(_threshold_time(space, stat, 2.0 ** k))
    for n in range(space.depth + 1):
        labels = space.level_labels[n]
        for c in range(space.level_sizes[n]):
            times = np.full(space.size, INFINITY, dtype=np.int64)
            times[labels == c] = n
            cands.append(StoppingTime(space, times, validate=False))
    seen = set()
    out = []
    for nu in cands:
        k = nu.key()
        if k not in seen:
            seen.add(k)
            out.append(nu)
    return out


def campanato_norm(space: FilteredSpace, g, p, q, mode="exact", cap=10**6,
                   extra_candidates=()) -> CampanatoResult:
    """sup over stopping times of the phi-weighted stopped oscillation.

    ``mode="exact"`` enumerates all stopping times when the count fits
    under ``cap`` and otherwise falls back to the heuristic family (the
    result's mode field records which route ran).  The heuristic value is
    a lower bound of the exact one.  Requires E[g] = 0.
    """
    g = space.rv(g)
    gm = from_terminal(space, g)

    if mode not in ("exact", "heuristic"):
        raise ValueError(f"mode must be 'exact' or 'heuristic', got {mode!r}")
    candidates = None
    actual = "heuristic-family"
    if mode == "exact":
        try:
            candidates = list(enumerate_stopping_times(space, cap))
            actual = "exact-enumeration"
        except EnumerationOverflow:
            candidates = None
    if candidates is None:
        candidates = _heuristic_family(space, gm)
    candidates = candidates + list(extra_candidates)

    best = 0.0
    best_nu = None
    examined = 0
    for nu in candidates:
        val = oscillation(space, g, gm, nu, p, q)
        if val is None:
            continue
        examined += 1
        if val > best or (
            best_nu is not None
            and val == best
            and tuple(nu.times) < tuple(best_nu.times)
        ):
            best = val
            best_nu = nu
    return CampanatoResult(best, best_nu, actual, examined)


def pairing(f: Martingale, g) -> float:
    """kappa_g(f) = E[f_N g]."""
    g = f.space.rv(g)
    return float(f.space.prob @ (f.terminal * g))


@dataclass
class DualityCertificate:
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


def certify_duality(f: Martingale, g, p, q, mode="heuristic", eta=1.0,
                    cap=10**6) -> DualityCertificate:
    """Certify |E[fg]| <= atom-wise bound <= C * ||f||_{H^s} * ||g||_{L_2,phi}.

    Valid for 0 < p <= q <= 1.  The atom-wise bound follows the ladder
    decomposition of f; the Campanato value is evaluated over the usual
    candidate family extended by that ladder's own stopping times, which
    are exactly the ones the chain argument tests.
    """
    if not (0 < p <= q <= 1):
        raise ValueError(f"duality chain requires 0 < p <= q <= 1, got ({p}, {q})")
    space = f.space
    g = space.rv(g)
    gm = from_terminal(space, g)

    d = decompose(f, p, q, flavor="s", defn="simple")
    lhs = abs(pairing(f, g))

    atomwise = 0.0
    for t in d.triples:
        mask = t.nu.support
        diff = g - _stopped_terminal(gm, t.nu)
        osc = math.sqrt(float(space.prob[mask] @ diff[mask] ** 2))
        a_l2 = math.sqrt(float(space.prob @ t.terminal ** 2))
        atomwise += t.lam * a_l2 * osc

    camp = campanato_norm(
        space, g, p, q, mode=mode, cap=cap,
        extra_candidates=[t.nu for t in d.triples],
    )
    hn = hardy_s_norm(f, p, q)
    const = ladder_constant(eta)
    budget = const * hn * camp.norm_value

    slack = SLACK * scale_of(lhs, atomwise, budget)
    ok = at_most(lhs, atomwise + slack) and at_most(atomwise, budget + slack)
    return DualityCertificate(
        lhs, atomwise, budget, camp, hn, const, ok,
        atomwise - lhs, budget - atomwise,
    )


def representer(space: FilteredSpace, functional_values) -> np.ndarray:
    """Recover the zero-mean g with E[X g] = value for every given X.

    ``functional_values`` is an iterable of (terminal_values, value)
    pairs whose terminals span the zero-mean functions; solved as a
    linear system in the outcome basis.
    """
    rows = [space.prob]  # zero-mean constraint
    rhs = [0.0]
    for x, v in functional_values:
        rows.append(space.prob * space.rv(x))
        rhs.append(float(v))
    a = np.vstack(rows)
    b = np.array(rhs)
    # a numerical-rank cutoff, not a comparison tolerance
    if np.linalg.matrix_rank(a, tol=1e-10) < space.size:
        raise SpaceError("functional values do not span the zero-mean space")
    g, *_ = np.linalg.lstsq(a, b, rcond=None)
    resid = float(np.max(np.abs(a @ g - b)))
    if not at_most(resid, SLACK * scale_of(b)):
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
    return ReverseMinkowskiReport(lhs, rhs, at_most(lhs, rhs * (1.0 + SLACK) + TOL))
