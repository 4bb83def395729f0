"""Tests for the NWS-style load forecasting extension."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.pace.forecast import (
    AdaptiveForecaster,
    ExponentialSmoothing,
    LastValue,
    LoadTracker,
    MedianWindow,
    RunningMean,
    SlidingWindowMean,
    default_predictor_family,
)
from tests.oracles import samples


class TestPredictors:
    def test_all_start_empty(self):
        for predictor in default_predictor_family():
            assert predictor.forecast() is None

    def test_last_value(self):
        p = LastValue()
        p.update(3.0)
        p.update(7.0)
        assert p.forecast() == 7.0

    def test_running_mean(self):
        p = RunningMean()
        for v in (2.0, 4.0, 6.0):
            p.update(v)
        assert p.forecast() == 4.0

    def test_sliding_window_mean(self):
        p = SlidingWindowMean(window=2)
        for v in (100.0, 2.0, 4.0):
            p.update(v)
        assert p.forecast() == 3.0  # the 100 rolled out

    def test_median_robust_to_spike(self):
        p = MedianWindow(window=5)
        for v in (1.0, 1.0, 50.0, 1.0, 1.0):
            p.update(v)
        assert p.forecast() == 1.0

    def test_median_even_window(self):
        p = MedianWindow(window=4)
        for v in (1.0, 2.0, 3.0, 4.0):
            p.update(v)
        assert p.forecast() == 2.5

    def test_exponential_smoothing(self):
        p = ExponentialSmoothing(alpha=0.5)
        p.update(0.0)
        p.update(10.0)
        assert p.forecast() == 5.0

    @pytest.mark.parametrize("alpha", [0.0, 1.5])
    def test_bad_alpha_rejected(self, alpha):
        with pytest.raises(ValidationError):
            ExponentialSmoothing(alpha=alpha)

    def test_bad_window_rejected(self):
        with pytest.raises(ValidationError):
            SlidingWindowMean(window=0)
        with pytest.raises(ValidationError):
            MedianWindow(window=0)


class TestAdaptiveForecaster:
    def test_no_forecast_before_data(self):
        assert AdaptiveForecaster().forecast() is None

    def test_constant_series_predicted_exactly(self):
        forecaster = AdaptiveForecaster()
        for _ in range(20):
            forecaster.update(5.0)
        assert forecaster.forecast() == pytest.approx(5.0)

    def test_picks_last_value_for_trending_series(self):
        # A steadily climbing series: last-value beats any mean.
        forecaster = AdaptiveForecaster()
        for i in range(50):
            forecaster.update(float(i))
        assert forecaster.best_name() == "last-value"
        assert forecaster.forecast() == pytest.approx(49.0)

    def test_robust_member_wins_on_spiky_series(self):
        rng = np.random.default_rng(0)
        forecaster = AdaptiveForecaster()
        for i in range(300):
            value = 2.0 if i % 17 else 60.0  # rare large spikes
            forecaster.update(value + float(rng.normal(0, 0.01)))
        # The spike-robust median must outperform naive last-value.
        errors = forecaster.errors()
        assert errors["window-median(9)"] < errors["last-value"]

    def test_beats_every_fixed_member_on_regime_change(self):
        """The adaptive meta-predictor tracks whichever member is best."""
        rng = np.random.default_rng(1)
        series = [5.0 + float(rng.normal(0, 0.1)) for _ in range(100)]
        series += [float(i) for i in range(60)]  # trend regime
        adaptive = AdaptiveForecaster()
        fixed = default_predictor_family()
        adaptive_err = 0.0
        fixed_err = {p.name: 0.0 for p in fixed}
        for value in series:
            if adaptive.forecast() is not None:
                adaptive_err += abs(adaptive.forecast() - value)
            for p in fixed:
                if p.forecast() is not None:
                    fixed_err[p.name] += abs(p.forecast() - value)
                p.update(value)
            adaptive.update(value)
        # Adaptive must be within 20% of the best fixed member overall.
        assert adaptive_err <= min(fixed_err.values()) * 1.2

    def test_observation_counter(self):
        forecaster = AdaptiveForecaster()
        forecaster.update(1.0)
        forecaster.update(2.0)
        assert forecaster.observations == 2

    def test_empty_family_rejected(self):
        with pytest.raises(ValidationError):
            AdaptiveForecaster(predictors=[])

    def test_bad_decay_rejected(self):
        with pytest.raises(ValidationError):
            AdaptiveForecaster(error_decay=0.0)


class TestLoadTracker:
    def test_unloaded_host_slowdown_one(self):
        tracker = LoadTracker()
        assert tracker.slowdown() == 1.0
        for _ in range(5):
            tracker.observe(0.0)
        assert tracker.slowdown() == pytest.approx(1.0)

    def test_loaded_host_slowdown(self):
        tracker = LoadTracker()
        for _ in range(20):
            tracker.observe(1.0)  # one competing process
        assert tracker.slowdown() == pytest.approx(2.0, rel=0.05)
        assert samples(tracker) == 20

    def test_negative_load_rejected(self):
        with pytest.raises(ValidationError):
            LoadTracker().observe(-0.1)

    def test_forecast_clamped_non_negative(self):
        tracker = LoadTracker()
        tracker.observe(0.0)
        assert tracker.forecast_load() >= 0.0
