"""Tests for the metric arithmetic helpers (eqs. 13–15 primitives)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.utils.stats import (
    balance_level,
    mean,
    mean_square_deviation,
    relative_deviation,
)


class TestMean:
    def test_simple(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            mean([])

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            mean([1.0, float("nan")])

    def test_2d_rejected(self):
        with pytest.raises(ValidationError):
            mean(np.ones((2, 2)))  # type: ignore[arg-type]


class TestMeanSquareDeviation:
    def test_uniform_is_zero(self):
        assert mean_square_deviation([5.0, 5.0, 5.0]) == 0.0

    def test_matches_population_std(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert mean_square_deviation(values) == pytest.approx(np.std(values))

    def test_single_value(self):
        assert mean_square_deviation([3.0]) == 0.0


class TestRelativeDeviation:
    def test_all_zero_is_zero(self):
        assert relative_deviation([0.0, 0.0]) == 0.0

    def test_zero_mean_nonuniform_rejected(self):
        with pytest.raises(ValidationError):
            relative_deviation([-1.0, 1.0])

    def test_value(self):
        # values (2, 4): mean 3, d = 1, relative = 1/3
        assert relative_deviation([2.0, 4.0]) == pytest.approx(1.0 / 3.0)


class TestBalanceLevel:
    def test_perfect_balance(self):
        assert balance_level([0.5, 0.5, 0.5]) == 1.0

    def test_paper_semantics(self):
        # β = 1 − d/mean; values (2, 4) give 1 − 1/3
        assert balance_level([2.0, 4.0]) == pytest.approx(2.0 / 3.0)

    def test_can_be_negative(self):
        # Severe imbalance: one busy node among many idle ones.
        values = [1.0] + [0.0] * 15
        assert balance_level(values) < 0
