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
from dataclasses import dataclass, field

import numpy as np

from .martingale import (
    Martingale,
    _ladder_statistic,
    _threshold_time,
    conditional_quadratic_variation,
    ladder_window,
    maximal_function,
    minimal_envelope,
    quadratic_variation,
    stop,
)
from .norms import hardy_s_norm, lpq_norm, p_space_norm, q_space_norm
from .space import SLACK, FilteredSpace, StoppingTime, at_most, conditional_expectation, scale_of

FLAVORS = ("s", "S", "star")
DEFNS = ("simple", "weighted")
DEFAULT_ETA_GRID = (0.25, 0.5, 0.75, 1.0)


@dataclass
class AtomTriple:
    """One rung (lambda_k, a^k, nu^k) of a decomposition ladder."""

    k: int
    lam: float
    atom: Martingale
    nu: StoppingTime
    flavor: str
    defn: str

    @property
    def terminal(self) -> np.ndarray:
        return self.atom.terminal


@dataclass
class Decomposition:
    space: FilteredSpace
    flavor: str
    defn: str
    p: float
    q: float
    triples: list
    source_norm: float
    #: per-rung record of B, P(B) and the disjointified sets G_k
    trace: list = field(default_factory=list)


def atom_statistic(flavor: str, atom: Martingale) -> np.ndarray:
    """The size functional tested in the atom conditions: s, S or *."""
    if flavor == "s":
        return conditional_quadratic_variation(atom)
    if flavor == "S":
        return quadratic_variation(atom)
    if flavor == "star":
        return maximal_function(atom)
    raise ValueError(f"unknown flavor {flavor!r}")


def source_norm_for(f: Martingale, flavor, p, q) -> float:
    """The norm a decomposition of this flavor is certified against."""
    if flavor == "s":
        return hardy_s_norm(f, p, q)
    if flavor == "S":
        return q_space_norm(f, p, q)
    return p_space_norm(f, p, q)


def default_r(flavor: str) -> float:
    """Verification exponent: 2 on the s side, infinity for S/star."""
    return 2.0 if flavor == "s" else math.inf


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

    if flavor == "s":
        stat = _ladder_statistic(f, "s-ladder")
        base_exp = 1  # lambda_k carries 2^{k+1}
    else:
        stat = minimal_envelope(f, flavor).levels
        base_exp = 2  # envelope ladders carry 2^{k+2}

    window = ladder_window(stat)
    dec = Decomposition(space, flavor, defn, p, q, [], source_norm_for(f, flavor, p, q))
    if window is None:
        return dec
    k_min, k_max = window

    nus = {k: _threshold_time(space, stat, 2.0 ** k) for k in range(k_min, k_max + 2)}
    supports = {k: nus[k].support for k in nus}
    for k in range(k_min, k_max + 1):
        mask = supports[k]
        pb = float(space.prob[mask].sum())
        if pb <= 0.0:
            continue  # empty rung: lambda_k = 0, zero atom, omitted
        if defn == "simple":
            lam = 2.0 ** (k + base_exp) * pb ** (1.0 / p)
        else:
            lam = 2.0 ** (k + base_exp) * lpq_norm(space, mask.astype(float), p, q)
        diff = stop(f, nus[k + 1]).levels - stop(f, nus[k]).levels
        atom = Martingale(space, diff / lam, validate=False)
        dec.triples.append(AtomTriple(k, lam, atom, nus[k], flavor, defn))
        dec.trace.append(
            {
                "k": k,
                "support": mask,
                "prob": pb,
                "disjoint": mask & ~supports[k + 1],
            }
        )
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
    support_leak: float

    @property
    def passed(self) -> bool:
        return self.vanishing_ok and self.size_ok and self.support_ok

    @property
    def slack(self) -> float:
        return self.bound - self.measured


def verify_atom(t: AtomTriple, p, q, r=None) -> AtomReport:
    """Check the atom conditions of one triple and report measured slack."""
    r = default_r(t.flavor) if r is None else r
    space = t.atom.space
    terminal = t.terminal
    scale = scale_of(terminal)

    # (a1): conditional expectations vanish while the clock has not run out
    residuals = [0.0]
    for n in range(space.depth + 1):
        live = t.nu.times >= n
        if not live.any():
            continue
        e = conditional_expectation(space, terminal, n)
        residuals.append(float(np.max(np.abs(e[live]))))
    residual = float(np.max(residuals))  # np.max keeps a NaN; max() would drop it
    vanishing_ok = at_most(residual, SLACK * scale)

    stat = atom_statistic(t.flavor, t.atom)
    mask = t.nu.support
    pb = float(space.prob[mask].sum())

    leak = float(np.max(stat[~mask])) if (~mask).any() else 0.0
    support_ok = at_most(leak, SLACK * scale)

    if math.isinf(r):
        measured = float(np.max(stat))
    else:
        measured = float(space.prob @ stat ** r) ** (1.0 / r)
    if pb <= 0.0:
        bound = 0.0
        size_ok = at_most(measured, SLACK * scale)
    else:
        pr = 1.0 if math.isinf(r) else pb ** (1.0 / r)
        if t.defn == "simple":
            bound = pr * pb ** (-1.0 / p)
        else:
            bound = pr / lpq_norm(space, mask.astype(float), p, q)
        size_ok = at_most(measured, bound * (1.0 + SLACK))
    return AtomReport(vanishing_ok, size_ok, support_ok, measured, bound, residual, leak)


def reconstruct(d: Decomposition, n) -> np.ndarray:
    """Sum of lambda_k E_n[a^k]; equals f_n exactly on the full window.

    Conditioning is linear, so the rungs are summed first and the sum is
    conditioned once.
    """
    d.space._check_level(n)
    total = np.zeros(d.space.size)
    for t in d.triples:
        total += t.lam * t.terminal
    return conditional_expectation(d.space, total, n)


def rung_weight(d: Decomposition, t: AtomTriple, p, q) -> float:
    """lambda_k normalized by the support size in the matching definition."""
    mask = t.nu.support
    pb = float(d.space.prob[mask].sum())
    if pb <= 0.0:
        return 0.0
    if d.defn == "simple":
        return t.lam / pb ** (1.0 / p)
    return t.lam / lpq_norm(d.space, mask.astype(float), p, q)


def aggregate_eta_norm(d: Decomposition, eta, p=None, q=None) -> float:
    """||sum_k w_k^eta 1_{B_k}||_{p/eta, q/eta}^{1/eta} for the rung weights."""
    if not 0 < eta <= 1:
        raise ValueError(f"eta must lie in (0, 1], got {eta}")
    p = d.p if p is None else p
    q = d.q if q is None else q
    if not d.triples:
        return 0.0
    fieldv = np.zeros(d.space.size)
    for t in d.triples:
        w = rung_weight(d, t, p, q)
        fieldv[t.nu.support] += w ** eta
    qq = math.inf if math.isinf(q) else q / eta
    return lpq_norm(d.space, fieldv, p / eta, qq) ** (1.0 / eta)


def ladder_constant(eta: float) -> float:
    """Upper-bound constant (4^eta / (2^eta - 1))^{1/eta} from the ladder sum."""
    return (4.0 ** eta / (2.0 ** eta - 1.0)) ** (1.0 / eta)


@dataclass
class BoundEntry:
    eta: float
    aggregate: float
    budget: float
    upper_ok: bool
    converse_ok: bool


@dataclass
class BoundsCertificate:
    flavor: str
    defn: str
    p: float
    q: float
    source_norm: float
    entries: list

    @property
    def passed(self) -> bool:
        return all(e.upper_ok and e.converse_ok for e in self.entries)

    def failing_etas(self):
        return [e.eta for e in self.entries if not (e.upper_ok and e.converse_ok)]


def certify_bounds(f: Martingale, d: Decomposition, p=None, q=None,
                   eta_grid=DEFAULT_ETA_GRID) -> BoundsCertificate:
    """Two-sided certificate for a decomposition of f.

    Upper side: aggregate(eta) <= C(eta) * source norm, with the extra
    factor 2 budget for the envelope flavors (their ladders carry 2^{k+2}
    and the admissible-envelope slack is a factor 2).  Converse side with
    constant 1: source norm <= aggregate(eta).
    """
    p = d.p if p is None else p
    q = d.q if q is None else q
    margin = 2.0 if d.flavor in ("S", "star") else 1.0
    entries = []
    for eta in eta_grid:
        agg = aggregate_eta_norm(d, eta, p, q)
        budget = margin * ladder_constant(eta) * d.source_norm
        upper_ok = at_most(agg, budget * (1.0 + SLACK) + SLACK)
        converse_ok = at_most(d.source_norm, agg * (1.0 + SLACK) + SLACK)
        entries.append(BoundEntry(eta, agg, budget, upper_ok, converse_ok))
    return BoundsCertificate(d.flavor, d.defn, p, q, d.source_norm, entries)
