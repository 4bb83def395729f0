"""Tests for the multi-seed robustness sweep."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments.sweep import run_seed_sweep
from tests.oracles import supported


@pytest.fixture(scope="module")
def summary():
    return run_seed_sweep([1, 2], request_count=15)


class TestRunSeedSweep:
    def test_covers_all_seeds(self, summary):
        assert summary.seeds == (1, 2)
        assert set(summary.per_seed) == {1, 2}
        for results in summary.per_seed.values():
            assert len(results) == 3

    def test_trend_support_fractions(self, summary):
        assert summary.trend_support
        for fraction in summary.trend_support.values():
            assert 0.0 <= fraction <= 1.0

    def test_totals_structure(self, summary):
        # β may be negative (eq. 15 permits it on severe imbalance), but
        # never exceeds 100 %; υ is a proper percentage.
        beta_mean, beta_std = summary.total(2, "beta")
        assert beta_mean <= 100.0
        assert beta_std >= 0.0
        ups_mean, _ = summary.total(2, "upsilon")
        assert 0.0 <= ups_mean <= 100.0
        with pytest.raises(ExperimentError):
            summary.total(2, "throughput")

    def test_supported_threshold(self, summary):
        everywhere = supported(summary, 1.0)
        somewhere = supported(summary, 0.0)
        assert set(everywhere) <= set(somewhere)

    def test_workloads_differ_across_seeds(self, summary):
        w1 = summary.per_seed[1][0].workload
        w2 = summary.per_seed[2][0].workload
        assert w1 != w2

    def test_empty_seeds_rejected(self):
        with pytest.raises(ExperimentError):
            run_seed_sweep([], request_count=10)

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ExperimentError):
            run_seed_sweep([3, 3], request_count=10)
