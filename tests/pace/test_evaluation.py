"""Tests for the PACE evaluation engine t_x(ρ, σ)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import EvaluationError
from repro.pace.application import TabulatedModel
from repro.pace.evaluation import EvaluationEngine
from repro.pace.hardware import SGI_ORIGIN_2000, SUN_SPARC_STATION_2
from repro.pace.resource import Node
from tests.oracles import evaluate_nodes, evaluate_on_resource, noise_factor


@pytest.fixture
def model():
    return TabulatedModel("toy", [12.0, 7.0, 5.0, 4.0])


class TestEvaluateCount:
    def test_matches_model(self, evaluator, model):
        assert evaluator.evaluate_count(model, 2, SGI_ORIGIN_2000) == 7.0

    def test_cached(self, evaluator, model):
        evaluator.evaluate_count(model, 2, SGI_ORIGIN_2000)
        evaluator.evaluate_count(model, 2, SGI_ORIGIN_2000)
        assert evaluator.evaluations == 1
        assert evaluator.cache.stats.hits == 1

    def test_cache_keyed_by_platform(self, evaluator, model):
        evaluator.evaluate_count(model, 2, SGI_ORIGIN_2000)
        evaluator.evaluate_count(model, 2, SUN_SPARC_STATION_2)
        assert evaluator.evaluations == 2


class TestEvaluateNodes:
    def test_homogeneous(self, evaluator, model, sgi_resource):
        nodes = sgi_resource.subset([0, 1])
        assert evaluate_nodes(evaluator, model, nodes) == 7.0

    def test_heterogeneous_paced_by_slowest(self, evaluator, model):
        nodes = (Node(0, SGI_ORIGIN_2000), Node(1, SUN_SPARC_STATION_2))
        # 2 nodes at SPARCstation2 pace: 7.0 × 8.
        assert evaluate_nodes(evaluator, model, nodes) == 56.0

    def test_empty_allocation_rejected(self, evaluator, model):
        with pytest.raises(EvaluationError):
            evaluate_nodes(evaluator, model, ())

    def test_on_resource(self, evaluator, model, sgi_resource):
        assert evaluate_on_resource(evaluator, model, sgi_resource, [3, 4, 5]) == 5.0


class TestBestCount:
    def test_eq10_minimiser(self, evaluator, model):
        k, t = evaluator.best_count(model, SGI_ORIGIN_2000, 4)
        assert (k, t) == (4, 4.0)

    def test_v_curve_interior_optimum(self, evaluator):
        v = TabulatedModel("v", [10.0, 6.0, 8.0, 12.0])
        k, t = evaluator.best_count(v, SGI_ORIGIN_2000, 4)
        assert (k, t) == (2, 6.0)

    def test_tie_prefers_fewer(self, evaluator):
        flat = TabulatedModel("flat", [9.0, 5.0, 5.0])
        k, _ = evaluator.best_count(flat, SGI_ORIGIN_2000, 3)
        assert k == 2

    def test_bad_max_rejected(self, evaluator, model):
        with pytest.raises(EvaluationError):
            evaluator.best_count(model, SGI_ORIGIN_2000, 0)


class TestNoise:
    def test_noise_requires_rng(self):
        with pytest.raises(EvaluationError):
            EvaluationEngine(noise_factor=0.1)

    def test_negative_noise_rejected(self):
        with pytest.raises(EvaluationError):
            EvaluationEngine(noise_factor=-0.1, rng=np.random.default_rng(0))

    def test_noise_is_deterministic_per_key(self, model):
        engine = EvaluationEngine(noise_factor=0.3, rng=np.random.default_rng(0))
        a = engine.evaluate_count(model, 2, SGI_ORIGIN_2000)
        b = engine.evaluate_count(model, 2, SGI_ORIGIN_2000)
        assert a == b

    def test_true_time_unperturbed(self, model):
        engine = EvaluationEngine(noise_factor=0.5, rng=np.random.default_rng(0))
        noisy = engine.evaluate_count(model, 1, SGI_ORIGIN_2000)
        true = engine.true_time(model, 1, SGI_ORIGIN_2000)
        assert true == 12.0
        assert noisy != true  # with σ = 0.5 a collision is ~impossible

    def test_zero_noise_is_exact(self, evaluator, model):
        assert noise_factor(evaluator) == 0.0
        assert evaluator.evaluate_count(model, 1, SGI_ORIGIN_2000) == 12.0


class TestInvalidModel:
    def test_non_finite_prediction_rejected(self, evaluator):
        class Broken(TabulatedModel):
            def predict(self, nproc, platform):
                return float("inf")

        broken = Broken("b", [1.0])
        with pytest.raises(EvaluationError):
            evaluator.evaluate_count(broken, 1, SGI_ORIGIN_2000)


class TestEvaluateCounts:
    def test_matches_scalar_row(self, evaluator, model):
        row = evaluator.evaluate_counts(model, SGI_ORIGIN_2000, 4)
        expected = [
            evaluator.evaluate_count(model, k, SGI_ORIGIN_2000) for k in range(1, 5)
        ]
        assert row.tolist() == expected

    def test_stats_identical_to_scalar_calls(self, model):
        bulk = EvaluationEngine()
        bulk.evaluate_counts(model, SGI_ORIGIN_2000, 4)
        scalar = EvaluationEngine()
        for k in range(1, 5):
            scalar.evaluate_count(model, k, SGI_ORIGIN_2000)
        assert bulk.cache.stats == scalar.cache.stats
        assert bulk.evaluations == scalar.evaluations

    def test_second_call_is_all_hits(self, evaluator, model):
        evaluator.evaluate_counts(model, SGI_ORIGIN_2000, 4)
        before = evaluator.evaluations
        row = evaluator.evaluate_counts(model, SGI_ORIGIN_2000, 4)
        assert evaluator.evaluations == before
        assert row.shape == (4,)

    def test_bad_max_nproc_rejected(self, evaluator, model):
        with pytest.raises(EvaluationError):
            evaluator.evaluate_counts(model, SGI_ORIGIN_2000, 0)

    def test_noisy_row_matches_scalar(self, model):
        rng = np.random.default_rng(7)
        engine = EvaluationEngine(noise_factor=0.3, rng=rng)
        row = engine.evaluate_counts(model, SGI_ORIGIN_2000, 4)
        expected = [
            engine.evaluate_count(model, k, SGI_ORIGIN_2000) for k in range(1, 5)
        ]
        assert row.tolist() == expected  # per-key noise is deterministic

    def test_best_count_uses_bulk_row(self, evaluator, model):
        best_k, best_t = evaluator.best_count(model, SGI_ORIGIN_2000, 4)
        assert (best_k, best_t) == (4, 4.0)
