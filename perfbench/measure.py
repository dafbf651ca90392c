"""Order statistics used by every workload's report."""

from __future__ import annotations

import math
from typing import Sequence

# Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """p-th percentile (0 <= p <= 100) of a non-empty sample, interpolating
    linearly between order statistics."""
    if not values:
        raise ValueError("percentile of an empty sample")
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def tail_percentile(
    n: int, ladder: Sequence[float] = TAIL_LADDER, min_beyond: int = MIN_BEYOND
) -> float | None:
    """Highest percentile on the ladder with at least ``min_beyond`` of ``n``
    samples beyond it, or None when even the lowest rung has too few."""
    for p in sorted(ladder, reverse=True):
        # n * (100 - p) / 100 samples lie beyond the p-th percentile
        if n * (100.0 - p) >= min_beyond * 100.0 - 1e-9:
            return p
    return None


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)
