"""Least-squares fitting of parametric model families to execution-time curves.

PACE builds application models from source-code analysis; we cannot analyse
the paper's MPI sources, but we *can* recover closed-form models from the
published Table 1 curves.  All three families in :mod:`repro.pace.parametric`
are linear in their parameters over the basis ``{1, 1/n, n}``, so ordinary
least squares (with a non-negativity projection for the physically
non-negative coefficients) suffices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ModelError
from repro.pace.application import ApplicationModel
from repro.pace.parametric import (
    AmdahlModel,
    CommOverheadModel,
    LinearModel,
    PowerOverheadModel,
)

__all__ = [
    "FitResult",
    "fit_amdahl",
    "fit_comm_overhead",
    "fit_power_overhead",
    "fit_linear",
    "fit_best",
]


@dataclass(frozen=True)
class FitResult:
    """A fitted model with its goodness-of-fit statistics.

    ``rmse`` is the root-mean-square error in seconds over the fitted
    points; ``max_abs_error`` is the worst single-point deviation.
    """

    model: ApplicationModel
    rmse: float
    max_abs_error: float


def _validate_curve(times: Sequence[float]) -> np.ndarray:
    arr = np.asarray(times, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ModelError("curve must be a 1-D sequence of at least 2 times")
    if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
        raise ModelError("curve times must be finite and > 0")
    return arr


def _errors(model: ApplicationModel, times: np.ndarray) -> tuple[float, float]:
    from repro.pace.hardware import SGI_ORIGIN_2000  # baseline, factor 1.0

    predicted = np.array(
        [model.predict(k, SGI_ORIGIN_2000) for k in range(1, times.size + 1)]
    )
    residual = predicted - times
    return float(np.sqrt(np.mean(residual**2))), float(np.max(np.abs(residual)))


def _nnls_2(basis: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Tiny non-negative least squares for <=3 columns via active-set search.

    With at most 3 coefficients, enumerating the 2^k sign-constraint
    subsets and solving each reduced OLS is exact and trivially fast.
    """
    ncol = basis.shape[1]
    best: np.ndarray | None = None
    best_err = np.inf
    for mask in range(1, 2**ncol):
        cols = [j for j in range(ncol) if mask & (1 << j)]
        sub = basis[:, cols]
        coef, *_ = np.linalg.lstsq(sub, y, rcond=None)
        if np.any(coef < 0):
            continue
        full = np.zeros(ncol)
        full[cols] = coef
        err = float(np.sum((basis @ full - y) ** 2))
        if err < best_err:
            best_err = err
            best = full
    if best is None:
        # All-positive solution impossible; fall back to clipped OLS.
        coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
        best = np.clip(coef, 0.0, None)
    return best


def fit_amdahl(name: str, times: Sequence[float]) -> FitResult:
    """Fit ``t(n) = serial + parallel/n`` with non-negative coefficients."""
    y = _validate_curve(times)
    n = np.arange(1, y.size + 1, dtype=float)
    basis = np.column_stack([np.ones_like(n), 1.0 / n])
    serial, parallel = _nnls_2(basis, y)
    if serial + parallel <= 0:
        raise ModelError(f"degenerate Amdahl fit for {name!r}")
    model = AmdahlModel(name, serial, parallel)
    rmse, max_err = _errors(model, y)
    return FitResult(model, rmse, max_err)


def fit_comm_overhead(name: str, times: Sequence[float]) -> FitResult:
    """Fit ``t(n) = serial + parallel/n + overhead·(n−1)``, coefficients >= 0."""
    y = _validate_curve(times)
    n = np.arange(1, y.size + 1, dtype=float)
    basis = np.column_stack([np.ones_like(n), 1.0 / n, n - 1.0])
    serial, parallel, overhead = _nnls_2(basis, y)
    if serial + parallel <= 0:
        raise ModelError(f"degenerate communication-overhead fit for {name!r}")
    model = CommOverheadModel(name, serial, parallel, overhead)
    rmse, max_err = _errors(model, y)
    return FitResult(model, rmse, max_err)


def fit_power_overhead(
    name: str, times: Sequence[float], *, degree: float = 2.0
) -> FitResult:
    """Fit ``t(n) = serial + parallel/n + overhead·(n−1)^degree``, >= 0."""
    y = _validate_curve(times)
    n = np.arange(1, y.size + 1, dtype=float)
    basis = np.column_stack([np.ones_like(n), 1.0 / n, (n - 1.0) ** degree])
    serial, parallel, overhead = _nnls_2(basis, y)
    if serial + parallel <= 0:
        raise ModelError(f"degenerate power-overhead fit for {name!r}")
    model = PowerOverheadModel(name, serial, parallel, overhead, degree=degree)
    rmse, max_err = _errors(model, y)
    return FitResult(model, rmse, max_err)


def fit_linear(name: str, times: Sequence[float]) -> FitResult:
    """Fit ``t(n) = intercept + slope·n`` by unconstrained OLS."""
    y = _validate_curve(times)
    n = np.arange(1, y.size + 1, dtype=float)
    basis = np.column_stack([np.ones_like(n), n])
    (intercept, slope), *_ = np.linalg.lstsq(basis, y, rcond=None)
    model = LinearModel(name, float(intercept), float(slope))
    # Reject fits that go non-positive inside the fitted range.
    if intercept + slope * y.size <= 0 or intercept + slope <= 0:
        raise ModelError(f"linear fit for {name!r} is non-positive in range")
    rmse, max_err = _errors(model, y)
    return FitResult(model, rmse, max_err)


def fit_best(name: str, times: Sequence[float]) -> FitResult:
    """Fit all families and return the lowest-RMSE result.

    The 3-parameter overhead families subsume Amdahl, but Amdahl or linear
    may still win on RMSE after the non-negativity projection; trying all
    families keeps the selection honest.
    """
    results = []
    for fitter in (fit_amdahl, fit_comm_overhead, fit_power_overhead, fit_linear):
        try:
            results.append(fitter(name, times))
        except ModelError:
            continue
    if not results:
        raise ModelError(f"no parametric family fits curve for {name!r}")
    return min(results, key=lambda r: r.rmse)
