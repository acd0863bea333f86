"""Order statistics for the benchmark's latency and spread figures."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

TAIL = 90  # preferred tail percentile
BEYOND = 10  # samples that must lie beyond a reported tail percentile


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0..100), linear between closest ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_level(n: int, preferred: int = TAIL, beyond: int = BEYOND) -> Optional[int]:
    """Highest whole percentile <= preferred with at least ``beyond`` of n samples above it.

    None when even the median would have fewer than ``beyond`` samples above it.
    """
    for q in range(preferred, 49, -1):
        # samples ranked strictly above the interpolation position of ``percentile``
        if n - 1 - math.floor((n - 1) * q / 100) >= beyond:
            return q
    return None


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartiles as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
