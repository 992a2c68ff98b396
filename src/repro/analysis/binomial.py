"""Exact binomial tail probabilities, for calibrating the Chernoff bounds.

Lemma 9's sample counts come from Chernoff bounds with explicit constants;
how much slack do those constants carry?  These exact tails (via scipy's
regularized incomplete beta through ``binom``) answer that: the calibration
test compares ``P[|X/s - p| > eps]`` computed exactly against Lemmas 10/11,
and :func:`exact_estimator_samples` finds the *smallest* sample count that
truly meets a (eps, delta) target -- the number an implementation could use
if it trusted exact tails instead of bounds.

``scipy.stats`` is imported on first use, not with the module: this module
sits on ``import repro``'s path, which the sketch server and ``repro
stream`` pay at start-up, and ``scipy.stats`` alone took about 1.1 s of
the 1.4 s that import cost.
"""

from __future__ import annotations

import math

from ..errors import ParameterError

__all__ = [
    "binomial_two_sided_tail",
    "binomial_upper_tail",
    "exact_estimator_samples",
    "chernoff_slack_factor",
]


def _check(s: int, p: float) -> None:
    if s < 1:
        raise ParameterError(f"s must be >= 1, got {s}")
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"p must lie in [0, 1], got {p}")


def binomial_upper_tail(s: int, p: float, threshold: float) -> float:
    """``P[X/s > threshold]`` for ``X ~ Binomial(s, p)`` (exact)."""
    _check(s, p)
    cutoff = math.floor(threshold * s)
    from scipy.stats import binom

    return float(binom.sf(cutoff, s, p))


def binomial_two_sided_tail(s: int, p: float, eps: float) -> float:
    """``P[|X/s - p| > eps]`` for ``X ~ Binomial(s, p)`` (exact)."""
    _check(s, p)
    if eps < 0:
        raise ParameterError(f"eps must be non-negative, got {eps}")
    from scipy.stats import binom

    upper = binom.sf(math.floor((p + eps) * s), s, p)
    lower = binom.cdf(math.ceil((p - eps) * s) - 1, s, p)
    return float(min(1.0, upper + lower))


def exact_estimator_samples(
    eps: float, delta: float, worst_p: float = 0.5, hi: int = 1 << 22
) -> int:
    """Smallest ``s`` with exact two-sided tail <= ``delta`` at ``worst_p``.

    ``p = 1/2`` maximizes the binomial variance, so a count sufficient
    there is sufficient for every frequency (the estimator task's worst
    case).  Binary search over ``s``.
    """
    if not 0.0 < eps < 1.0 or not 0.0 < delta < 1.0:
        raise ParameterError("eps and delta must lie in (0, 1)")
    lo = 1
    if binomial_two_sided_tail(hi, worst_p, eps) > delta:
        raise ParameterError(f"no s <= {hi} meets the target; eps too small")
    while lo < hi:
        mid = (lo + hi) // 2
        if binomial_two_sided_tail(mid, worst_p, eps) <= delta:
            hi = mid
        else:
            lo = mid + 1
    return lo


def chernoff_slack_factor(eps: float, delta: float) -> float:
    """How oversized Lemma 9's estimator count is vs the exact requirement.

    Returns ``lemma9_count / exact_count`` (>= 1 whenever the bound is
    valid); the calibration bench reports this across (eps, delta).
    """
    from .chernoff import foreach_estimator_samples

    exact = exact_estimator_samples(eps, delta)
    return foreach_estimator_samples(eps, delta) / exact
