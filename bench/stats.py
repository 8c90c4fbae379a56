"""Order statistics used by the benchmark and by its baseline notes."""

from __future__ import annotations

import math
import statistics


def percentile(values, q: float) -> float:
    """q-th percentile (0..100) by linear interpolation between closest ranks.

    Matches numpy's default ("linear") method, so p50 of an even-sized sample
    is the mean of the two middle values.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(count: int, q: float) -> int:
    """Samples strictly above the q-th percentile rank of a sample of `count`."""
    return count - 1 - math.floor((count - 1) * q / 100.0)


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
