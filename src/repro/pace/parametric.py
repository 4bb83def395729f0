"""Parametric application models — closed-form speedup-curve families.

Table 1's seven applications show three qualitative shapes:

* monotone-decreasing, flattening (sweep3d, jacobi) — Amdahl-like;
* slowly decreasing, latency-bound (fft, closure) — Amdahl with a large
  serial fraction, or linear;
* V-shaped with an interior optimum (improc at 8 processors, memsort at
  8–9, cpi at 12) — a communication-overhead term that *grows* with the
  processor count.

Each family here is linear in its parameters given the 1/n and n basis
functions, so :mod:`repro.pace.fitting` can fit them by least squares.
All families predict a *baseline-platform* time; other platforms scale by
their speed factor, mirroring :class:`~repro.pace.application.TabulatedModel`.
"""

from __future__ import annotations


from repro.errors import ModelError
from repro.pace.application import ApplicationModel
from repro.pace.hardware import PlatformSpec
from repro.utils.validation import check_non_negative

__all__ = ["AmdahlModel", "CommOverheadModel", "PowerOverheadModel", "LinearModel"]


class AmdahlModel(ApplicationModel):
    """``t(n) = serial + parallel / n`` — Amdahl's law.

    ``serial`` and ``parallel`` are baseline-platform seconds of
    non-parallelisable and perfectly divisible work respectively.
    """

    def __init__(self, name: str, serial: float, parallel: float) -> None:
        super().__init__(name)
        check_non_negative(serial, "serial")
        check_non_negative(parallel, "parallel")
        if serial + parallel <= 0:
            raise ModelError("serial + parallel must be > 0")
        self._serial = float(serial)
        self._parallel = float(parallel)

    def predict(self, nproc: int, platform: PlatformSpec) -> float:
        self._check_nproc(nproc)
        base = self._serial + self._parallel / nproc
        return base * platform.speed_factor


class CommOverheadModel(ApplicationModel):
    """``t(n) = serial + parallel / n + overhead × (n − 1)``.

    The linear overhead term models per-processor communication /
    coordination cost and produces the V-shaped curves of improc, memsort
    and cpi: beyond the optimum, adding processors *increases* run time.
    """

    def __init__(self, name: str, serial: float, parallel: float, overhead: float) -> None:
        super().__init__(name)
        check_non_negative(serial, "serial")
        check_non_negative(parallel, "parallel")
        check_non_negative(overhead, "overhead")
        if serial + parallel <= 0:
            raise ModelError("serial + parallel must be > 0")
        self._serial = float(serial)
        self._parallel = float(parallel)
        self._overhead = float(overhead)

    def predict(self, nproc: int, platform: PlatformSpec) -> float:
        self._check_nproc(nproc)
        base = self._serial + self._parallel / nproc + self._overhead * (nproc - 1)
        return base * platform.speed_factor


class PowerOverheadModel(ApplicationModel):
    """``t(n) = serial + parallel / n + overhead × (n − 1)^degree``.

    A superlinear overhead term sharpens the V: cpi's curve in Table 1
    plunges to 2 s at 12 processors and rebounds to 20 s at 16 — growth the
    linear family cannot follow.  ``degree`` defaults to 2 (quadratic),
    which keeps the family linear in its coefficients for fitting.
    """

    def __init__(
        self,
        name: str,
        serial: float,
        parallel: float,
        overhead: float,
        *,
        degree: float = 2.0,
    ) -> None:
        super().__init__(name)
        check_non_negative(serial, "serial")
        check_non_negative(parallel, "parallel")
        check_non_negative(overhead, "overhead")
        if degree <= 1.0:
            raise ModelError(f"degree must be > 1, got {degree}")
        if serial + parallel <= 0:
            raise ModelError("serial + parallel must be > 0")
        self._serial = float(serial)
        self._parallel = float(parallel)
        self._overhead = float(overhead)
        self._degree = float(degree)

    def predict(self, nproc: int, platform: PlatformSpec) -> float:
        self._check_nproc(nproc)
        base = (
            self._serial
            + self._parallel / nproc
            + self._overhead * (nproc - 1) ** self._degree
        )
        return base * platform.speed_factor


class LinearModel(ApplicationModel):
    """``t(n) = intercept + slope × n`` — degenerate but occasionally the
    best two-parameter description of latency-bound curves such as fft's
    near-arithmetic progression in Table 1 (25, 24, ..., 10).

    ``slope`` may be negative (time decreasing with n); predictions must
    remain positive over the validity range, which :meth:`predict` enforces.
    """

    def __init__(self, name: str, intercept: float, slope: float) -> None:
        super().__init__(name)
        self._intercept = float(intercept)
        self._slope = float(slope)

    def predict(self, nproc: int, platform: PlatformSpec) -> float:
        self._check_nproc(nproc)
        base = self._intercept + self._slope * nproc
        if base <= 0:
            raise ModelError(
                f"linear model {self._name!r} predicts non-positive time at nproc={nproc}"
            )
        return base * platform.speed_factor
