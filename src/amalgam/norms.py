"""Amalgam norm L_{p,q} and the five martingale Hardy-amalgam norms.

The amalgam norm aggregates local L_p mass on the blocks of the space in
l_q across blocks; it reduces to the plain L_p norm when p = q.  The five
process norms apply it to s(f), S(f), f^* and to the minimal predictor
envelopes of both flavors.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels
from .martingale import (
    Martingale,
    conditional_quadratic_variation,
    maximal_function,
    minimal_envelope,
    quadratic_variation,
)
from .space import FilteredSpace

#: exponent magnitude below which powers are taken in log space
_LOG_SPACE_CUTOFF = 0.1


def _check_pq(p, q):
    if not 0 < p < math.inf:
        raise ValueError(f"p must lie in (0, inf), got {p}")
    if not 0 < q:
        raise ValueError(f"q must lie in (0, inf], got {q}")


def lpq_norm(space: FilteredSpace, values, p, q) -> float:
    """Block-local L_p mass aggregated in l_q across blocks.

    Finite q: [sum_j (int |g|^p over block j)^{q/p}]^{1/q}; q = inf takes
    the sup of the per-block (int |g|^p)^{1/p}.  Blocks with zero integral
    contribute nothing for every q, including q = inf.
    """
    _check_pq(p, q)
    g = np.abs(space.rv(values))
    integrals = _kernels.cell_sums(space.block_labels, space.n_blocks, space.prob * g ** p)
    pos = integrals[integrals > 0.0]
    if pos.size == 0:
        return 0.0
    if math.isinf(q):
        return float(np.max(pos)) ** (1.0 / p)
    if min(p, q) < _LOG_SPACE_CUTOFF:
        # tiny exponents overflow the direct power chain; stay in logs
        logs = (q / p) * np.log(pos)
        m = float(np.max(logs))
        return math.exp((m + math.log(float(np.sum(np.exp(logs - m))))) / q)
    return float(np.sum(pos ** (q / p))) ** (1.0 / q)


def lp_norm(space: FilteredSpace, values, p) -> float:
    """Plain (E|g|^p)^{1/p}, the p = q diagonal."""
    g = np.abs(space.rv(values))
    if math.isinf(p):
        return float(np.max(g))
    return float(space.prob @ g ** p) ** (1.0 / p)


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


FIVE_NORMS = ("hardy_s", "hardy_S", "hardy_star", "q_space", "p_space")


def all_five_norms(f: Martingale, p, q) -> dict:
    return {
        "hardy_s": hardy_s_norm(f, p, q),
        "hardy_S": hardy_S_norm(f, p, q),
        "hardy_star": hardy_star_norm(f, p, q),
        "q_space": q_space_norm(f, p, q),
        "p_space": p_space_norm(f, p, q),
    }
