"""Tests for the parametric speedup-curve families."""

from __future__ import annotations

import pytest

from repro.errors import ModelError
from repro.pace.hardware import SGI_ORIGIN_2000, SUN_ULTRA_10
from repro.pace.parametric import AmdahlModel, CommOverheadModel, LinearModel
from tests.oracles import optimum, parameters, speedup


class TestAmdahlModel:
    def test_formula(self):
        m = AmdahlModel("a", serial=2.0, parallel=8.0)
        assert m.predict(1, SGI_ORIGIN_2000) == 10.0
        assert m.predict(4, SGI_ORIGIN_2000) == 4.0

    def test_platform_scaling(self):
        m = AmdahlModel("a", serial=2.0, parallel=8.0)
        assert m.predict(1, SUN_ULTRA_10) == 20.0

    def test_monotone_decreasing(self):
        m = AmdahlModel("a", serial=1.0, parallel=30.0)
        times = [m.predict(k, SGI_ORIGIN_2000) for k in range(1, 20)]
        assert times == sorted(times, reverse=True)

    def test_speedup_bounded_by_serial_fraction(self):
        m = AmdahlModel("a", serial=1.0, parallel=9.0)
        assert speedup(m, 10_000) < 10.0
        assert speedup(m, 2) == pytest.approx(10.0 / 5.5)

    def test_degenerate_rejected(self):
        with pytest.raises(ModelError):
            AmdahlModel("a", serial=0.0, parallel=0.0)

    def test_parameters_property(self):
        assert parameters(AmdahlModel("a", 1.0, 2.0)) == (1.0, 2.0)


class TestCommOverheadModel:
    def test_formula(self):
        m = CommOverheadModel("c", serial=1.0, parallel=16.0, overhead=1.0)
        assert m.predict(1, SGI_ORIGIN_2000) == 17.0
        assert m.predict(4, SGI_ORIGIN_2000) == 8.0

    def test_v_shape(self):
        m = CommOverheadModel("c", serial=0.0, parallel=64.0, overhead=1.0)
        times = [m.predict(k, SGI_ORIGIN_2000) for k in range(1, 17)]
        best = times.index(min(times)) + 1
        assert best == 8  # sqrt(64/1)
        assert times[15] > times[7]

    def test_optimum_formula(self):
        m = CommOverheadModel("c", serial=0.0, parallel=64.0, overhead=4.0)
        assert optimum(m) == 4.0

    def test_zero_overhead_optimum_infinite(self):
        m = CommOverheadModel("c", serial=1.0, parallel=4.0, overhead=0.0)
        assert optimum(m) == float("inf")

    def test_negative_overhead_rejected(self):
        with pytest.raises(Exception):
            CommOverheadModel("c", serial=1.0, parallel=1.0, overhead=-0.1)


class TestLinearModel:
    def test_formula(self):
        m = LinearModel("l", intercept=26.0, slope=-1.0)
        assert m.predict(1, SGI_ORIGIN_2000) == 25.0
        assert m.predict(16, SGI_ORIGIN_2000) == 10.0

    def test_non_positive_prediction_rejected(self):
        m = LinearModel("l", intercept=5.0, slope=-1.0)
        with pytest.raises(ModelError):
            m.predict(10, SGI_ORIGIN_2000)

    def test_platform_scaling(self):
        m = LinearModel("l", intercept=10.0, slope=0.0)
        assert m.predict(3, SUN_ULTRA_10) == 20.0
