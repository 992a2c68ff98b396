"""Order statistics with an explicit sample-support rule.

A percentile is reported only when at least :data:`MIN_BEYOND` samples
lie beyond it, so a tail figure never rests on one or two slow requests.
Percentiles use the nearest-rank definition: the ``p``-th percentile of
``n`` sorted samples is the one at 1-based rank ``ceil(p * n / 100)``.
Failed requests enter as ``inf``, so they count as missing every limit.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


class UnsupportedPercentile(ValueError):
    """The sample is too small to put ``MIN_BEYOND`` samples past ``p``."""


def rank(p: float, n: int) -> int:
    """1-based nearest rank of the ``p``-th percentile among ``n`` samples."""
    if not 0.0 < p < 100.0:
        raise ValueError(f"percentile must lie in (0, 100), got {p}")
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def samples_beyond(p: float, n: int) -> int:
    """How many of ``n`` samples lie strictly past the ``p``-th percentile."""
    return n - rank(p, n) if n else 0


def supports(p: float, n: int) -> bool:
    """Whether ``n`` samples support reporting the ``p``-th percentile."""
    return n > 0 and samples_beyond(p, n) >= MIN_BEYOND


def highest_supported(n: int) -> float | None:
    """The highest percentile of :data:`TAIL_LADDER` that ``n`` samples support."""
    for p in TAIL_LADDER:
        if supports(p, n):
            return p
    return None


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile; refuses one the sample cannot support."""
    n = len(values)
    if not supports(p, n):
        raise UnsupportedPercentile(
            f"p{p:g} needs {MIN_BEYOND} samples beyond it; "
            f"{n} samples leave {samples_beyond(p, n)}"
        )
    return sorted(values)[rank(p, n) - 1]


def quartile_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
