"""Statistical helpers backing the paper's performance metrics (§3.3).

The metric definitions in :mod:`repro.metrics.balancing` are thin wrappers
over these primitives; keeping them here lets the hypothesis property tests
exercise the arithmetic in isolation.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ValidationError

__all__ = [
    "mean",
    "mean_square_deviation",
    "relative_deviation",
    "balance_level",
]


def _as_array(values: Sequence[float], name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{name} must not be empty")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} must contain only finite values")
    return arr


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean of a non-empty sequence."""
    return float(_as_array(values, "values").mean())


def mean_square_deviation(values: Sequence[float]) -> float:
    """Root of the mean squared deviation from the mean — the paper's eq. (14).

    The paper calls ``d = sqrt(sum((v_i - mean)^2) / N)`` the "mean square
    deviation"; it is the population standard deviation.
    """
    arr = _as_array(values, "values")
    return float(np.sqrt(np.mean((arr - arr.mean()) ** 2)))


def relative_deviation(values: Sequence[float]) -> float:
    """``d / mean`` — the relative deviation used inside eq. (15).

    Returns 0 when the mean is 0 and all values are 0 (a perfectly
    balanced, perfectly idle system); raises otherwise, because the
    paper's β is undefined for a zero-mean, non-uniform utilisation.
    """
    arr = _as_array(values, "values")
    m = arr.mean()
    if m == 0.0:
        if np.allclose(arr, 0.0):
            return 0.0
        raise ValidationError("relative deviation undefined: mean is 0 but values differ")
    return float(mean_square_deviation(arr) / m)


def balance_level(values: Sequence[float]) -> float:
    """Load-balancing level ``β = (1 − d/mean) × 100%`` — the paper's eq. (15).

    Expressed here as a fraction in ``(−∞, 1]``; callers multiply by 100 for
    display.  β = 1 means perfectly balanced (zero deviation).  Values may go
    negative when the deviation exceeds the mean (severely unbalanced), which
    the paper's formula also permits.
    """
    return 1.0 - relative_deviation(values)
