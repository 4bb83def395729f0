"""Tests for least-squares fitting of the parametric families."""

from __future__ import annotations

import pytest

from repro.errors import ModelError
from repro.pace.fitting import (
    fit_amdahl,
    fit_best,
    fit_comm_overhead,
    fit_linear,
    fit_power_overhead,
)
from repro.pace.hardware import SGI_ORIGIN_2000
from repro.pace.parametric import AmdahlModel, CommOverheadModel, PowerOverheadModel
from repro.pace.workloads import TABLE1_TIMES
from tests.oracles import parameters


class TestExactRecovery:
    def test_amdahl_recovers_exact_curve(self):
        truth = AmdahlModel("t", serial=3.0, parallel=24.0)
        curve = [truth.predict(k, SGI_ORIGIN_2000) for k in range(1, 17)]
        fit = fit_amdahl("t", curve)
        assert fit.rmse < 1e-9
        serial, parallel = parameters(fit.model)
        assert serial == pytest.approx(3.0)
        assert parallel == pytest.approx(24.0)

    def test_comm_overhead_recovers_exact_curve(self):
        truth = CommOverheadModel("t", serial=1.0, parallel=32.0, overhead=0.5)
        curve = [truth.predict(k, SGI_ORIGIN_2000) for k in range(1, 17)]
        fit = fit_comm_overhead("t", curve)
        assert fit.rmse < 1e-9

    def test_linear_recovers_fft(self):
        # Table 1's fft is exactly 26 - n.
        fit = fit_linear("fft", TABLE1_TIMES["fft"])
        assert fit.rmse < 1e-9
        intercept, slope = parameters(fit.model)
        assert intercept == pytest.approx(26.0)
        assert slope == pytest.approx(-1.0)


class TestFitBest:
    def test_v_shaped_curves_get_overhead_family(self):
        for name in ("improc", "memsort", "cpi"):
            fit = fit_best(name, TABLE1_TIMES[name])
            assert isinstance(
                fit.model, (CommOverheadModel, PowerOverheadModel)
            ), name

    def test_best_has_lowest_rmse(self):
        curve = TABLE1_TIMES["sweep3d"]
        best = fit_best("sweep3d", curve)
        for fitter in (fit_amdahl, fit_comm_overhead, fit_power_overhead, fit_linear):
            try:
                other = fitter("sweep3d", curve)
            except ModelError:
                continue
            assert best.rmse <= other.rmse + 1e-12

    def test_all_paper_curves_fit_reasonably(self):
        # Closed 2-3 parameter families cannot track cpi's sharp rebound
        # exactly; the bound asserts they stay within half the curve mean.
        for name, curve in TABLE1_TIMES.items():
            fit = fit_best(name, curve)
            assert fit.rmse < 0.5 * (sum(curve) / len(curve)), name

    def test_fitted_optimum_matches_improc(self):
        # Paper: improc's optimum is at 8 processors; the best-fit curve's
        # integer argmin should land nearby.
        fit = fit_best("improc", TABLE1_TIMES["improc"])
        times = [fit.model.predict(k, SGI_ORIGIN_2000) for k in range(1, 17)]
        best = times.index(min(times)) + 1
        assert 6 <= best <= 10

    def test_power_family_gives_cpi_interior_optimum(self):
        fit = fit_power_overhead("cpi", TABLE1_TIMES["cpi"])
        times = [fit.model.predict(k, SGI_ORIGIN_2000) for k in range(1, 17)]
        best = times.index(min(times)) + 1
        assert 1 < best < 16  # published optimum is 12


class TestValidation:
    def test_short_curve_rejected(self):
        with pytest.raises(ModelError):
            fit_amdahl("x", [1.0])

    def test_non_positive_rejected(self):
        with pytest.raises(ModelError):
            fit_amdahl("x", [1.0, 0.0])

    def test_nan_rejected(self):
        with pytest.raises(ModelError):
            fit_amdahl("x", [1.0, float("nan")])

    def test_nnls_coefficients_non_negative(self):
        # An increasing curve must not produce a negative parallel term.
        fit = fit_amdahl("inc", [1.0, 2.0, 3.0, 4.0])
        serial, parallel = parameters(fit.model)
        assert serial >= 0
        assert parallel >= 0
