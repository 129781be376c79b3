"""Constructive atomic decompositions and their certificates.

Four algorithm variants: conditional-quadratic-variation ladders for the
H^s norm (flavor "s") and minimal-envelope ladders for the predictive
spaces (flavors "S" and "star"), each with "simple" coefficients driven
by P(B)^{1/p} or "weighted" coefficients driven by the amalgam norm of
the support indicator.  Every emitted triple is checkable against the
atom conditions, the ladder reconstructs the martingale exactly, and the
two-sided bound certificate carries the explicit ladder constants.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .martingale import (
    FLAVORS,
    Martingale,
    _ladder_statistic,
    conditional_quadratic_variation,
    ladder_times,
    maximal_function,
    quadratic_variation,
    stopped,
)
from .norms import _check_exponent, _masses, lpq_norm, lq_aggregate
from .space import (
    INFINITY, FilteredSpace, StoppingTime, binary_exponent, condition_rows, require_finite,
    require_space, scale_of, scaled, times_pow2, within,
)

DEFNS = ("simple", "weighted")
DEFAULT_ETA_GRID = (0.25, 0.5, 0.75, 1.0)


@dataclass
class AtomTriple:
    """One rung (lambda_k, a^k, nu^k) of a decomposition ladder.  The atom is
    stored as its terminal: a martingale is fixed by it, a_n = E_n[a]."""

    k: int
    lam: float
    terminal: np.ndarray
    nu: StoppingTime


@dataclass
class Decomposition:
    space: FilteredSpace
    flavor: str
    defn: str
    p: float
    q: float
    triples: list
    source_norm: float


def atom_statistic(flavor: str, atom: Martingale) -> np.ndarray:
    """The size functional tested in the atom conditions: s, S or *."""
    if flavor == "s":
        return conditional_quadratic_variation(atom)
    if flavor == "S":
        return quadratic_variation(atom)
    if flavor == "star":
        return maximal_function(atom)
    raise ValueError(f"unknown flavor {flavor!r}")


def default_r(flavor: str) -> float:
    """Verification exponent: 2 on the s side, infinity for S/star."""
    return 2.0 if flavor == "s" else math.inf


def _sizes(d: Decomposition, supports):
    """Yield (P(B), |B|) for each row B of the (K, M) masks ``supports``: |B| is
    P(B)^{1/p} (simple) or ||1_B||_{p,q}, the l_q aggregate of B's block masses
    (weighted), and 0 when P(B) = 0.  A nonempty B whose size is not a normal float
    is refused as its row is reached: lambda_k would be 0, or P(B)^{-1/p} overflow."""
    space, p, k = d.space, d.p, len(supports)
    _check_exponent("p", p)
    if d.defn == "weighted":
        _check_exponent("q", d.q, inf_ok=True)
        w = (space.prob * np.reshape(supports, (k, space.size))).ravel()
        sizes = lq_aggregate(_masses(space, np.repeat(np.arange(k), space.size), k, w)[1], p, d.q)
    for i, b in enumerate(supports):
        pb = float(space.prob[b].sum())
        size = _power(pb, 1.0 / p) if d.defn == "simple" else float(sizes[i])
        if pb > 0.0 and not sys.float_info.min <= size < math.inf:
            cause = "is too small" if d.defn == "simple" else f"or q = {d.q!r} is too extreme"
            raise ValueError(f"p = {p!r} {cause}: a rung of mass {pb!r} has support size "
                             f"{size!r}, not a normal float")
        yield pb, size


def decompose(f: Martingale, p, q, flavor="s", defn="simple") -> Decomposition:
    """Run the ladder construction for the requested theorem variant.

    Atoms are a^k = (f^{nu^{k+1}} - f^{nu^k}) / lambda_k over the finite
    ladder window; a zero martingale yields the empty decomposition.
    """
    if flavor not in FLAVORS:
        raise ValueError(f"flavor must be one of {FLAVORS}")
    if defn not in DEFNS:
        raise ValueError(f"defn must be one of {DEFNS}")
    space = f.space
    # lambda_k carries 2^{k+1} on the s ladder, 2^{k+2} on envelope ladders
    base_exp = 1 if flavor == "s" else 2
    stat = _ladder_statistic(f, flavor)
    if np.isinf(stat[-1]).any():  # the last row is the largest; f* cannot overflow
        raise ValueError(f"{flavor}(f) leaves the float range: the {flavor!r} ladder has no rungs")
    # source_norm_for's norm, of the statistic the ladder reads
    dec = Decomposition(space, flavor, defn, p, q, [], lpq_norm(space, stat[-1], p, q))

    ks, times = ladder_times(stat)
    # row k is the terminal f_{nu^k} of the stopped martingale f^{nu^k}
    rows = stopped(f.levels, times)
    rungs = []  # (k, lambda_k, row) of each nonempty rung
    # the sizes come last, so each rung's is checked just before its lambda
    for i, (k, (pb, size)) in enumerate(zip(ks, _sizes(dec, times[:-1] != INFINITY))):
        if pb > 0.0:  # an empty rung has lambda_k = 0 and a zero atom: omitted
            lam = float(times_pow2(size, k + base_exp))
            if not 0.0 < lam < math.inf:
                raise ValueError(f"rung k = {k}: lambda_k = 2^{k + base_exp} * {size!r} "
                                 f"is {lam!r}, not a positive finite float")
            rungs.append((k, lam, i))
    at = [i for _, _, i in rungs]
    lams = np.array([lam for _, lam, _ in rungs])[:, None]
    above, below = rows[1:][at], rows[at]
    with np.errstate(over="ignore"):  # all atoms at once
        atoms = (above - below) / lams
        if not np.isfinite(atoms).all():  # levels near the float top: take their halves' difference
            atoms = np.where(np.isfinite(atoms), atoms, (above / 2 - below / 2) / lams * 2)
            require_finite(atoms, "atom_terminal")
    dec.triples = [AtomTriple(k, lam, atom, StoppingTime(space, times[i], validate=False))
                   for (k, lam, i), atom in zip(rungs, atoms)]
    return dec


@dataclass
class AtomReport:
    """Per-condition outcome of checking one triple."""

    vanishing_ok: bool      # (a1): E_n a = 0 on {nu >= n}
    size_ok: bool           # (a2) or (a3) depending on the definition
    support_ok: bool
    measured: float
    bound: float
    vanishing_residual: float

    @property
    def passed(self) -> bool:
        return self.vanishing_ok and self.size_ok and self.support_ok


def verify_atom(d: Decomposition, t: AtomTriple, rs=None) -> list:
    """Check the atom conditions of one triple of ``d``: one report per
    exponent r in (0, inf] in ``rs`` (default: the flavor's ``default_r``).
    The r-independent work, residual, statistic and support, runs once."""
    rs = [default_r(d.flavor)] if rs is None else rs
    space = d.space
    require_space(t.nu, space)
    terminal = t.terminal
    scale = scale_of(terminal)

    # (a1): conditional expectations vanish while the clock has not run out
    e = condition_rows(space, np.broadcast_to(terminal, (space.depth + 1, space.size)))
    live = t.nu.times >= np.arange(space.depth + 1)[:, None]
    residual = float(np.max(np.abs(e), where=live, initial=0.0))  # a NaN is kept
    vanishing_ok = within(residual, 0.0, scale)

    stat = atom_statistic(d.flavor, Martingale(space, e, validate=False))
    mask = t.nu.support
    [(pb, size)] = _sizes(d, [mask])

    leak = float(np.max(stat[~mask])) if (~mask).any() else 0.0
    support_ok = within(leak, 0.0, scale)

    small, e = scaled(stat)
    reports = []
    for r in rs:
        _check_exponent("r", r, inf_ok=True)
        if math.isinf(r):
            measured = float(np.max(stat))
        else:
            measured = float(times_pow2(float(space.prob @ small ** r) ** (1.0 / r), e))
        if pb <= 0.0:
            bound = 0.0
            size_ok = within(measured, 0.0, scale)
        else:
            pr = 1.0 if math.isinf(r) else pb ** (1.0 / r)
            # the simple bound keeps its own rounding: pr / |B| differs in the last bit
            bound = pr * pb ** (-1.0 / d.p) if d.defn == "simple" else pr / size
            size_ok = within(measured, bound)
        reports.append(AtomReport(vanishing_ok, size_ok, support_ok, measured, bound, residual))
    return reports


def reconstruct(d: Decomposition, e=0) -> np.ndarray:
    """(N+1, M) table whose row n is 2^-e sum_k lambda_k E_n[a^k]; equals f * 2^-e
    exactly on the full window.

    Conditioning is linear, so the rungs are summed first and the sum is
    conditioned once at every level.
    """
    total = np.zeros(d.space.size)
    for t in d.triples:
        total += math.ldexp(t.lam, -e) * t.terminal
    return condition_rows(d.space, np.broadcast_to(total, (d.space.depth + 1, d.space.size)))


def reconstruction_residuals(d: Decomposition, f: Martingale):
    """(residual, ok): each level's max|reconstruct(d)_n - f_n|, and whether every
    one is within the slack at f's own scale.  A NaN residual fails.  Each rung and
    partial sum is at most 2 max|f|, so near the float top the sum is taken at 2^-e."""
    e = max(binary_exponent(scale := scale_of(f.levels)) - 1021, 0)
    residual = times_pow2(np.max(np.abs(reconstruct(d, e) - np.ldexp(f.levels, -e)), axis=1), e)
    return residual, within(residual, 0.0, scale)


def rung_weight(d: Decomposition, t: AtomTriple) -> float:
    """lambda_k normalized by the support size in the matching definition."""
    [(pb, size)] = _sizes(d, [t.nu.support])
    return t.lam / size if pb > 0.0 else 0.0


def aggregate_eta_norm(d: Decomposition, eta) -> float:
    """||sum_k w_k^eta 1_{B_k}||_{p/eta, q/eta}^{1/eta} for the rung weights."""
    return _aggregates(d, [eta])[0]


def _aggregates(d: Decomposition, etas) -> list:
    """aggregate_eta_norm at each eta; every rung's size and weight are taken once, in one pass."""
    supports = np.reshape([t.nu.support for t in d.triples], (len(d.triples), d.space.size))
    weights = [t.lam / size if pb > 0.0 else 0.0
               for t, (pb, size) in zip(d.triples, _sizes(d, supports))]
    norms = []
    for eta in etas:
        _check_eta(eta)
        if any(math.isinf(x / eta) and math.isfinite(x) for x in (d.p, d.q)):
            raise ValueError(f"eta = {eta!r} is too small: p/eta or q/eta leaves the float range")
        # in rung order per outcome (numpy's sum is pairwise on one outcome); libm's w ** eta
        fieldv = sum(np.where(supports, np.array([w ** eta for w in weights])[:, None], 0.0),
                     np.zeros(d.space.size))
        norms.append(_power(lpq_norm(d.space, fieldv, d.p / eta, d.q / eta), 1.0 / eta))
    return norms


def _check_eta(eta):
    """Refuse an eta outside (0, 1], NaN included."""
    if not 0 < eta <= 1:
        raise ValueError(f"eta must lie in (0, 1], got {eta}")


def ladder_constant(eta: float) -> float:
    """Upper-bound constant (4^eta / (2^eta - 1))^{1/eta} from the ladder sum;
    inf where 2^eta - 1 rounds to 0, as C(eta) grows without bound as eta -> 0."""
    _check_eta(eta)
    den = 2.0 ** eta - 1.0
    return _power(4.0 ** eta / den, 1.0 / eta) if den else math.inf


def _power(x, y) -> float:
    """x ** y for x >= 0, which is inf beyond the float range."""
    try:
        return float(x) ** y
    except OverflowError:
        return math.inf


@dataclass
class BoundEntry:
    eta: float
    aggregate: float
    budget: float
    upper_ok: bool
    converse_ok: bool


@dataclass
class BoundsCertificate:
    source_norm: float
    entries: list

    @property
    def passed(self) -> bool:
        return all(e.upper_ok and e.converse_ok for e in self.entries)

    def failing_etas(self):
        return [e.eta for e in self.entries if not (e.upper_ok and e.converse_ok)]


def certify_bounds(d: Decomposition, eta_grid=DEFAULT_ETA_GRID) -> BoundsCertificate:
    """Two-sided certificate for a decomposition.

    Upper side: aggregate(eta) <= C(eta) * source norm, with the extra
    factor 2 budget for the envelope flavors (their ladders carry 2^{k+2}
    and the admissible-envelope slack is a factor 2).  Converse side with
    constant 1: source norm <= aggregate(eta).  An empty grid is refused.
    """
    eta_grid = tuple(eta_grid)  # read once: _aggregates and the entries both walk it
    if not eta_grid:
        raise ValueError("eta_grid must hold at least one eta")
    margin = 2.0 if d.flavor in ("S", "star") else 1.0
    entries = []
    for eta, agg in zip(eta_grid, _aggregates(d, eta_grid)):
        # C(eta) * 0 is 0 also where C(eta) is beyond the float range
        budget = margin * ladder_constant(eta) * d.source_norm if d.source_norm else 0.0
        upper_ok = within(agg, budget)
        converse_ok = within(d.source_norm, agg)
        entries.append(BoundEntry(eta, agg, budget, upper_ok, converse_ok))
    return BoundsCertificate(d.source_norm, entries)
