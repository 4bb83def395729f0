"""Order statistics the benchmark reports: medians, quartiles, percentiles.

Quartiles use :func:`statistics.quantiles` with ``n=4`` (its default,
exclusive method), the same rule the acceptance check applies to a set of
runs; percentiles of simulated response times interpolate linearly
between order statistics, as NumPy's default does.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence, Tuple


def median(values: Sequence[float]) -> float:
    """The median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """``(Q1, Q3)`` of a non-empty sample; a single value is its own quartiles."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (``inf`` at median 0)."""
    q1, q3 = quartiles(values)
    mid = median(values)
    if mid == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(mid)


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0-100), linear between order statistics."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def describe(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count of one metric's samples."""
    q1, q3 = quartiles(values)
    return {"median": median(values), "q1": q1, "q3": q3, "n": len(values)}
