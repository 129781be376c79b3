"""Amalgam norm L_{p,q} and the five martingale Hardy-amalgam norms.

The amalgam norm aggregates local L_p mass on the blocks of the space in
l_q across blocks; it reduces to the plain L_p norm when p = q.  The five
process norms apply it to s(f), S(f), f^* and to the minimal predictor
envelopes of both flavors.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from . import _kernels
from .martingale import (
    Martingale,
    _envelope_levels,
    _ladder_statistic,
    conditional_quadratic_variation,
    maximal_function,
    minimal_envelope,
    quadratic_variation,
    quadratic_variation_partial,
)
from .space import FilteredSpace, scaled, times_pow2

#: exponent magnitude below which powers are taken in log space
_LOG_SPACE_CUTOFF = 0.1
#: the least normal float: a power below it has lost bits
_TINY = sys.float_info.min


def _check_exponent(name, x, inf_ok=False):
    """Exponents lie in (0, inf), or (0, inf] when ``inf_ok``; NaN never does.
    A subnormal one is refused: it has lost bits, and 1/x overflows for most."""
    if not (0 < x < math.inf or (inf_ok and x == math.inf)):
        raise ValueError(f"{name} must lie in (0, inf{']' if inf_ok else ')'}, got {x}")
    if x < _TINY:
        raise ValueError(f"{name} = {x!r} is subnormal: below {_TINY!r}")


def lpq_norm(space: FilteredSpace, values, p, q) -> float:
    """Block-local L_p mass aggregated in l_q across blocks.

    Finite q: [sum_j (int |g|^p over block j)^{q/p}]^{1/q}; q = inf takes
    the sup of the per-block (int |g|^p)^{1/p}.  Blocks with zero integral
    contribute nothing for every q, including q = inf.
    """
    _check_exponent("p", p)
    _check_exponent("q", q, inf_ok=True)
    return _blocked_norm(space, space.block_labels, space.n_blocks, values, p, q)


def _blocked_norm(space, labels, n_blocks, values, p, q) -> float:
    """lpq_norm over the partition ``labels`` of the outcomes.

    The norm is homogeneous, so both branches take it of g / 2^e with
    max|g| / 2^e in (1/2, 1] and scale back: no power overflows, and g * 2^k
    gives the norm times 2^k to the bit.
    """
    g = np.abs(space.rv(values))
    if float(g.max()) == 0.0:
        return 0.0
    g, e = scaled(g)
    powers = g ** p
    # the direct branch needs every power of a positive g to be a normal
    # float: below the cutoff g^p rounds to 1, and a large p underflows it
    if p >= _LOG_SPACE_CUTOFF and not ((powers < _TINY) & (g > 0.0)).any():
        integrals = _kernels.cell_sums(labels, n_blocks, space.prob * powers)
        return float(times_pow2(lq_aggregate(integrals[None], p, q)[0], e))
    # with m_j the block maximum, int_j g^p = m_j^p P_j (1 + sum P expm1(p log(g / m_j)) / P_j)
    # over {g > 0}, and no power is taken outside the logs
    on = g > 0.0
    peak = _kernels.cell_max(labels, n_blocks, g)
    mass = _kernels.cell_sums(labels[on], n_blocks, space.prob[on])
    rel = np.log(g[on] / peak[labels[on]])
    excess = _kernels.cell_sums(labels[on], n_blocks, space.prob[on] * np.expm1(p * rel))
    logs = np.full(n_blocks, -math.inf)
    pos = mass > 0.0
    logs[pos] = (p * np.log(peak[pos]) + np.log(mass[pos])
                 + np.log1p(excess[pos] / mass[pos]))
    return float(times_pow2(lq_aggregate(None, p, q, logs[None])[0], e))


def lq_aggregate(integrals, p, q, logs=None) -> np.ndarray:
    """l_q aggregation of block integrals of |g|^p, one row per function.

    Row r of the (rows, J) ``integrals`` becomes [sum_j I_rj^{q/p}]^{1/q},
    or max_j I_rj^{1/p} when q = inf; a zero integral contributes nothing.
    The powers are taken in log space below ``_LOG_SPACE_CUTOFF``, from
    ``logs`` when the caller has them more accurately than log(integrals)
    (``integrals`` may then be None), and in any row where a positive
    integral's I^{q/p} leaves the normal float range: the choice is made
    per row, so a row gets the same bits in any stack.  In log space, a row
    where (q/p) max_j log I_j is beyond the float range, as every row is when
    q = inf, is the limit of the sum: max_j I_j^{1/p} times c^{1/q} for c tied
    maxima.  A row with no positive integral is 0.
    """
    # log 0 is -inf, a power beyond the float range is inf, and the NaN of a
    # row beyond it is replaced
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if logs is None and min(p, q) >= _LOG_SPACE_CUTOFF:
            if math.isinf(q):
                return np.max(integrals, axis=1) ** (1.0 / p)
            powers = integrals ** (q / p)
            out = _row_totals(powers) ** (1.0 / q)
            # the powers of zero integrals are the only ones allowed under _TINY
            lost = (powers < _TINY) != (integrals == 0.0)
            lost |= powers == math.inf
            if lost.any():
                rows = lost.any(axis=1)
                out[rows] = lq_aggregate(None, p, q, np.log(integrals[rows]))
            return out
        if logs is None:
            logs = np.log(integrals)
        z = (q / p) * logs
        m = np.max(z, axis=1)
        out = np.exp((m + np.log(_row_totals(np.exp(z - m[:, None])))) / q)
        far = ~np.isfinite(m)
        if far.any():
            top = np.max(logs[far], axis=1)
            ties = np.count_nonzero(logs[far] == top[:, None], axis=1)
            out[far] = np.exp(top / p) * ties ** (1.0 / q)
        return out


def _row_totals(x):
    """Row sums in column order, so equal rows sum to equal bits in any stack:
    one add per column, cumsum's order, where cumsum itself walks row by row
    and is ten times slower on tall stacks."""
    total = x[:, 0].copy()
    for column in x.T[1:]:
        total += column
    return total


def _masses(space, cells, n_cells, w):
    """Total and (n_cells, J) per-block sums of the weights w on each cell.

    ``cells`` and ``w`` run over whole copies of the outcome set, one copy
    per row of the stack they come from.
    """
    J = space.n_blocks
    blocks = np.tile(space.block_labels, len(cells) // space.size)
    return (_kernels.cell_sums(cells, n_cells, w),
            _kernels.cell_sums(cells * J + blocks, n_cells * J, w).reshape(n_cells, J))


def lp_norm(space: FilteredSpace, values, p) -> float:
    """Plain (E|g|^p)^{1/p}, the p = q diagonal: one block holding everything."""
    _check_exponent("p", p, inf_ok=True)
    if math.isinf(p):
        return float(np.max(np.abs(space.rv(values))))
    return _blocked_norm(space, np.zeros(space.size, dtype=np.int64), 1, values, p, p)


def hardy_s_norm(f: Martingale, p, q) -> float:
    """||s(f)||_{p,q}."""
    return lpq_norm(f.space, conditional_quadratic_variation(f), p, q)


def hardy_S_norm(f: Martingale, p, q) -> float:
    """||S(f)||_{p,q}."""
    return lpq_norm(f.space, quadratic_variation(f), p, q)


def hardy_star_norm(f: Martingale, p, q) -> float:
    """||f^*||_{p,q}."""
    return lpq_norm(f.space, maximal_function(f), p, q)


def q_space_norm(f: Martingale, p, q) -> float:
    """Envelope norm over S-dominating envelopes; exact by minimality."""
    return lpq_norm(f.space, minimal_envelope(f, "S").final, p, q)


def p_space_norm(f: Martingale, p, q) -> float:
    """Envelope norm over |f|-dominating envelopes; exact by minimality."""
    return lpq_norm(f.space, minimal_envelope(f, "star").final, p, q)


def source_norm_for(f: Martingale, flavor, p, q) -> float:
    """The norm certifying a decomposition of this flavor, that of its ladder statistic's
    final row: hardy_s_norm, q_space_norm or p_space_norm, to the bit."""
    return lpq_norm(f.space, _ladder_statistic(f, flavor)[-1], p, q)


FIVE_NORMS = ("hardy_s", "hardy_S", "hardy_star", "q_space", "p_space")


def all_five_norms(f: Martingale, p, q) -> dict:
    """The five norms; S_n(f) is taken once, for S(f) and as the S envelope's target."""
    S_rows = quadratic_variation_partial(f)
    return {
        "hardy_s": source_norm_for(f, "s", p, q),
        "hardy_S": lpq_norm(f.space, S_rows[-1], p, q),
        "hardy_star": hardy_star_norm(f, p, q),
        "q_space": lpq_norm(f.space, _envelope_levels(f.space, S_rows)[-1], p, q),
        "p_space": source_norm_for(f, "star", p, q),
    }
