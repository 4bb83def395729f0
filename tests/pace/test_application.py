"""Tests for application models σ (tabulated family)."""

from __future__ import annotations

import pytest

from repro.errors import ModelError
from repro.pace.application import TabulatedModel
from repro.pace.hardware import SGI_ORIGIN_2000, SUN_ULTRA_5, SUN_ULTRA_10
from tests.oracles import as_mapping, curve, max_profiled, optimal_nproc


@pytest.fixture
def model():
    return TabulatedModel("toy", [10.0, 6.0, 4.0, 3.0])


class TestTabulatedModel:
    def test_baseline_prediction(self, model):
        assert model.predict(1, SGI_ORIGIN_2000) == 10.0
        assert model.predict(4, SGI_ORIGIN_2000) == 3.0

    def test_platform_scaling(self, model):
        assert model.predict(2, SUN_ULTRA_10) == 12.0  # factor 2.0
        assert model.predict(2, SUN_ULTRA_5) == 18.0  # factor 3.0

    def test_clamp_beyond_profile(self, model):
        # sweep3d semantics: no further improvement beyond the profile.
        assert model.predict(10, SGI_ORIGIN_2000) == model.predict(4, SGI_ORIGIN_2000)

    def test_no_clamp_raises(self):
        strict = TabulatedModel("toy", [10.0, 6.0], clamp=False)
        with pytest.raises(ModelError):
            strict.predict(3, SGI_ORIGIN_2000)

    @pytest.mark.parametrize("bad", [0, -1, 1.5, True])
    def test_bad_nproc_rejected(self, model, bad):
        with pytest.raises(ModelError):
            model.predict(bad, SGI_ORIGIN_2000)

    def test_empty_curve_rejected(self):
        with pytest.raises(ModelError):
            TabulatedModel("toy", [])

    def test_non_positive_times_rejected(self):
        with pytest.raises(ModelError):
            TabulatedModel("toy", [10.0, 0.0])

    def test_empty_name_rejected(self):
        with pytest.raises(ModelError):
            TabulatedModel("", [1.0])

    def test_curve_helper(self, model):
        assert curve(model, SGI_ORIGIN_2000, 4) == (10.0, 6.0, 4.0, 3.0)

    def test_optimal_nproc_monotone(self, model):
        assert optimal_nproc(model, SGI_ORIGIN_2000, 4) == 4

    def test_optimal_nproc_v_shaped(self):
        v = TabulatedModel("v", [10.0, 6.0, 8.0, 12.0])
        assert optimal_nproc(v, SGI_ORIGIN_2000, 4) == 2

    def test_optimal_nproc_tie_prefers_fewer(self):
        flat = TabulatedModel("flat", [10.0, 5.0, 5.0])
        assert optimal_nproc(flat, SGI_ORIGIN_2000, 3) == 2

    def test_as_mapping(self, model):
        mapping = as_mapping(model, SGI_ORIGIN_2000)
        assert mapping == {1: 10.0, 2: 6.0, 3: 4.0, 4: 3.0}

    def test_max_profiled(self, model):
        assert max_profiled(model) == 4
