"""Every verdict is the same when f and g are scaled by a power of two.

Scaling by 2^k is exact, and each check weighs its slack against scale_of()
of the values it compares, with no floor, so nothing but the printed
quantities may change: norms, lambda_k, the bound budgets, the reconstruction
residuals and the Campanato value by exactly 2^k, and the pairing side of the duality chain by 2^2k.  (The
eta aggregates scale by 2^k too, but through powers of 2^(k eta), so not to
the bit.)
"""

import math

import numpy as np
from hypothesis import given, strategies as st

from amalgam import (
    AtomTriple,
    PredictorEnvelope,
    SpaceError,
    StoppingTime,
    all_five_norms,
    certify_bounds,
    certify_duality,
    decompose,
    from_terminal,
    is_measurable,
    minimal_envelope,
    reconstruction_residuals,
    reverse_minkowski_check,
    verify_atom,
)
from amalgam.atoms import DEFNS, FLAVORS
from amalgam.martingale import dominates
from conftest import centred, small_trees

# (p, q) pairs: the benchmark's duality pairs, the diagonal at 1, one below
# the log-space cutoff, and one with q < p, where duality is not certified
EXPONENTS = ((0.5, 1.0), (0.75, 0.75), (0.25, 0.5), (1.0, 1.0), (0.05, 0.5), (2.0, 0.75))


def _envelope_verdict(space, levels, flavor):
    try:
        PredictorEnvelope(space, levels, flavor)
    except SpaceError as exc:
        return str(exc)
    return "accepted"


def _run(space, x, y, k, p, q, flavor, defn):
    """(verdicts, quantities) of every check on f = E_n[x 2^k] and g = y 2^k.

    Each quantity is paired with the degree e of the 2^(e k) it carries."""
    f = from_terminal(space, np.ldexp(x, k))
    g = np.ldexp(y, k)
    verdicts, scaled = [], []

    scaled += [(v, 1) for v in all_five_norms(f, p, q).values()]

    d = decompose(f, p, q, flavor=flavor, defn=defn)
    scaled += [(t.lam, 1) for t in d.triples]
    cert = certify_bounds(d)
    verdicts += [(e.upper_ok, e.converse_ok) for e in cert.entries]
    scaled += [(e.budget, 1) for e in cert.entries]
    residual, ok = reconstruction_residuals(d, f)
    verdicts.append(ok)
    scaled += [(r, 1) for r in residual]

    # an atom of d does not scale with f; g, set in as an atom where each rung
    # stops, does, so its size condition changes with k, but not the other two
    for t in d.triples:
        verdicts += [(r.vanishing_ok, r.size_ok, r.support_ok)
                     for r in verify_atom(d, t, [2.0, 4.0, math.inf])]
    for nu in [t.nu for t in d.triples] + [StoppingTime(space, [0] * space.size)]:
        verdicts += [(r.vanishing_ok, r.support_ok)
                     for r in verify_atom(d, AtomTriple(0, 1.0, g, nu), [2.0, 4.0, math.inf])]

    if p <= q <= 1:
        dual = certify_duality(f, g, p, q, mode="heuristic")
        verdicts.append(dual.chain_ok)
        scaled += [(dual.campanato.norm_value, 1), (dual.pairing_abs, 2),
                   (dual.atomwise_bound, 2), (dual.budget, 2)]
    if p < 1 and q <= 1:
        verdicts.append(reverse_minkowski_check(space, [f.terminal, g], p, q).ok)

    # the library checks: measurability of each level at every time, the
    # envelopes that do and do not hold, and domination
    verdicts += [is_measurable(space, row, n)
                 for row in f.levels for n in range(space.depth + 1)]
    for fl in PredictorEnvelope.FLAVORS:
        beta = minimal_envelope(f, fl)
        running = np.maximum.accumulate(np.abs(f.levels), axis=0)
        verdicts += [_envelope_verdict(space, levels, fl)
                     for levels in (beta.levels, running, np.vstack([running[1:], running[-1:]]))]
        half = PredictorEnvelope(space, beta.levels / 2, fl, validate=False)
        verdicts += [dominates(beta, f), dominates(half, f)]
    return verdicts, scaled


@given(small_trees(max_outcomes=16, random_weights=True, max_blocks=3), st.data(),
       st.integers(-60, 60), st.sampled_from(EXPONENTS), st.sampled_from(FLAVORS),
       st.sampled_from(DEFNS))
def test_every_verdict_is_the_same_at_every_power_of_two_scale(space, data, k, pq, flavor,
                                                                defn):
    # drawn on a grid of 2^-10, so no value scaled by 2^-60 leaves the normal range
    draw = st.lists(st.integers(-2 ** 20, 2 ** 20), min_size=space.size, max_size=space.size)
    x = centred(space, np.ldexp(np.array(data.draw(draw), dtype=float), -10))
    y = centred(space, np.ldexp(np.array(data.draw(draw), dtype=float), -10))
    verdicts, quantities = _run(space, x, y, 0, *pq, flavor, defn)
    verdicts_k, quantities_k = _run(space, x, y, k, *pq, flavor, defn)
    assert verdicts_k == verdicts
    assert [v for v, _ in quantities_k] == [float(np.ldexp(v, e * k)) for v, e in quantities]
