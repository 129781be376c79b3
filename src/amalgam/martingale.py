"""Martingales and their process functionals.

Differences, the two quadratic variations, the maximal function, stopped
processes, dyadic threshold ladders and the minimal predictor envelope.
Levels are stored as a (N+1, M) array: row n is f_n over the outcomes.
"""

from __future__ import annotations

import math

import numpy as np

from .space import (
    INFINITY,
    FilteredSpace,
    SpaceError,
    StoppingTime,
    conditional_ess_sup,
    conditional_expectation,
    is_measurable,
)
from .space import SLACK, TOL, at_most, require_finite, scale_of


class Martingale:
    """Adapted process with f_0 = 0 and the conditional-expectation law."""

    def __init__(self, space: FilteredSpace, levels, validate=True):
        self.space = space
        lv = np.asarray(levels, dtype=np.float64)
        if lv.shape != (space.depth + 1, space.size):
            raise SpaceError(
                f"levels must have shape {(space.depth + 1, space.size)}, got {lv.shape}"
            )
        self.levels = lv
        if validate:
            require_finite(lv, "martingale levels")
            scale = scale_of(lv)
            if not at_most(np.abs(lv[0]), TOL * scale):
                raise SpaceError("f_0 must vanish")
            for n in range(space.depth):
                e = conditional_expectation(space, lv[n + 1], n)
                if not at_most(np.abs(e - lv[n]), SLACK * scale):
                    raise SpaceError(f"martingale property fails at step {n}")

    @property
    def terminal(self) -> np.ndarray:
        return self.levels[-1]

    def __repr__(self):
        return f"Martingale(depth={self.space.depth}, size={self.space.size})"


class PredictorEnvelope:
    """Adapted, non-negative, non-decreasing dominator of S_n(f) or |f_n|.

    flavor "S" requires S_n(f) <= beta_{n-1}; flavor "star" requires
    |f_n| <= beta_{n-1}, both for n >= 1.
    """

    FLAVORS = ("S", "star")

    def __init__(self, space: FilteredSpace, levels, flavor, validate=True,
                 against: "Martingale | None" = None):
        if flavor not in self.FLAVORS:
            raise ValueError(f"flavor must be one of {self.FLAVORS}")
        self.space = space
        self.flavor = flavor
        lv = np.asarray(levels, dtype=np.float64)
        if lv.shape != (space.depth + 1, space.size):
            raise SpaceError("envelope levels have wrong shape")
        self.levels = lv
        if validate:
            require_finite(lv, "envelope levels")
            slack = TOL * scale_of(lv)
            if not at_most(-slack, lv):
                raise SpaceError("envelope must be non-negative")
            if not at_most(lv[:-1] - slack, lv[1:]):
                raise SpaceError("envelope must be non-decreasing")
            for n in range(space.depth + 1):
                if not is_measurable(space, lv[n], n):
                    raise SpaceError(f"envelope level {n} not adapted")
            if against is not None and not dominates(self, against):
                raise SpaceError("envelope does not dominate the martingale")

    @property
    def final(self) -> np.ndarray:
        """beta_infinity, which is beta_N on a finite horizon."""
        return self.levels[-1]


def dominates(beta: PredictorEnvelope, f: Martingale) -> bool:
    """Whether beta_{n-1} covers the level-n target up to SLACK."""
    target = quadratic_variation_partial(f) if beta.flavor == "S" else np.abs(f.levels)
    # predictor shift: level n must be covered by beta_{n-1}
    return at_most(target[1:], beta.levels[:-1] + SLACK * scale_of(target))


def from_terminal(space: FilteredSpace, x) -> Martingale:
    """Martingale f_n = E_n[x]; requires E[x] = 0."""
    x = space.rv(x)
    require_finite(x, "terminal value")
    mean = float(space.prob @ x)
    if not at_most(abs(mean), SLACK * scale_of(x)):
        raise SpaceError(f"terminal value has nonzero mean {mean!r}")
    levels = np.empty((space.depth + 1, space.size))
    levels[0] = 0.0
    for n in range(1, space.depth + 1):
        levels[n] = conditional_expectation(space, x, n)
    levels[1:] -= mean  # remove the rounding-level mean so f_0 = 0 exactly
    return Martingale(space, levels, validate=False)


def differences(f: Martingale) -> np.ndarray:
    """Rows d_0 = 0, d_n = f_n - f_{n-1}."""
    d = np.empty_like(f.levels)
    d[0] = 0.0
    d[1:] = f.levels[1:] - f.levels[:-1]
    return d


def quadratic_variation_partial(f: Martingale) -> np.ndarray:
    """Row n is S_n(f) = (sum_{i<=n} |d_i f|^2)^{1/2}."""
    d = differences(f)
    return np.sqrt(np.cumsum(d * d, axis=0))


def conditional_quadratic_variation_partial(f: Martingale) -> np.ndarray:
    """Row n is s_n(f); the i-th summand is E_{i-1}|d_i f|^2."""
    d = differences(f)
    terms = np.zeros_like(d)
    for n in range(1, f.space.depth + 1):
        terms[n] = conditional_expectation(f.space, d[n] * d[n], n - 1)
    return np.sqrt(np.cumsum(terms, axis=0))


def quadratic_variation(f: Martingale) -> np.ndarray:
    return quadratic_variation_partial(f)[-1]


def conditional_quadratic_variation(f: Martingale) -> np.ndarray:
    return conditional_quadratic_variation_partial(f)[-1]


def maximal_function(f: Martingale) -> np.ndarray:
    """f^*: pointwise max over n of |f_n|."""
    return np.max(np.abs(f.levels), axis=0)


def stop(f: Martingale, nu: StoppingTime) -> Martingale:
    """Stopped martingale f^nu with levels f_{min(n, nu)}."""
    if nu.space is not f.space:
        raise SpaceError("stopping time lives on a different space")
    N = f.space.depth
    cols = np.arange(f.space.size)
    out = np.empty_like(f.levels)
    for n in range(N + 1):
        idx = np.minimum(n, np.minimum(nu.times, N))
        out[n] = f.levels[idx, cols]
    return Martingale(f.space, out, validate=False)


def _ladder_statistic(f: Martingale, flavor, beta=None) -> np.ndarray:
    """Row n is the F_n-measurable statistic driving the level-n trigger."""
    if flavor == "s-ladder":
        s_part = conditional_quadratic_variation_partial(f)
        # s_{n+1} for n < N; s_{N+1} is the full sum s(f)
        return np.vstack([s_part[1:], s_part[-1:]])
    if flavor == "envelope-ladder":
        if beta is None:
            raise ValueError("envelope-ladder requires a predictor envelope")
        return beta.levels
    raise ValueError(f"unknown ladder flavor {flavor!r}")


def ladder_stopping_time(f: Martingale, k, flavor="s-ladder", beta=None) -> StoppingTime:
    """First n whose ladder statistic exceeds 2^k, else infinity."""
    stat = _ladder_statistic(f, flavor, beta)
    return _threshold_time(f.space, stat, 2.0 ** k)


def _threshold_time(space, stat_rows, threshold) -> StoppingTime:
    exceeded = stat_rows > threshold
    times = np.full(space.size, INFINITY, dtype=np.int64)
    hit = exceeded.any(axis=0)
    times[hit] = np.argmax(exceeded[:, hit], axis=0)
    return StoppingTime(space, times, validate=False)


def ladder_window(stat_rows):
    """Ladder index range (k_min, k_max) covering all nontrivial rungs.

    2^{k_min} sits below every genuinely positive statistic value so the
    bottom stopped martingale is negligible; 2^{k_max+1} sits at or above
    the max so the rung above the window never triggers.  Values at or
    under TOL times the max are rounding noise and are ignored:
    rungs at that scale would divide float cancellation error by a
    comparably tiny lambda and emit garbage atoms.  Returns None when the
    statistic is identically zero.
    """
    vals = np.asarray(stat_rows)
    top = float(vals.max()) if vals.size else 0.0
    if top <= 0.0:
        return None
    minpos = float(vals[vals > top * TOL].min())
    k_min = math.floor(math.log2(minpos)) - 1
    k_max = math.ceil(math.log2(top)) - 1
    if 2.0 ** k_min >= minpos:  # guard against log2 rounding at powers of two
        k_min -= 1
    while 2.0 ** (k_max + 1) < top:
        k_max += 1
    return k_min, k_max


def minimal_envelope(f: Martingale, flavor="S") -> PredictorEnvelope:
    """Pointwise-smallest admissible envelope of the given flavor.

    beta_n = max(beta_{n-1}, smallest F_n-measurable majorant of the
    level-(n+1) target), starting from beta_{-1} = 0.  Pointwise
    minimality makes the envelope-norm infimum exact for every monotone
    norm.
    """
    if flavor not in PredictorEnvelope.FLAVORS:
        raise ValueError(f"flavor must be one of {PredictorEnvelope.FLAVORS}")
    target = quadratic_variation_partial(f) if flavor == "S" else np.abs(f.levels)
    N = f.space.depth
    beta = np.zeros_like(f.levels)
    prev = np.zeros(f.space.size)
    for n in range(N):
        need = conditional_ess_sup(f.space, target[n + 1], n)
        prev = np.maximum(prev, need)
        beta[n] = prev
    beta[N] = prev
    return PredictorEnvelope(f.space, beta, flavor, validate=False)
