"""Property tests: the evaluation-reuse layer changes nothing but speed.

The kernel reuses costs in two places — elites carry their costs into
the next generation of one ``evolve`` call, and the final cost vector
answers the following ``best_solution`` under unchanged availability.
Across random seeds, population sizes and task counts:

* the cost vector ``evolve`` retains equals a fresh evaluation of the
  final population (eq. (8) is pure; the carried costs belong to the
  individuals they sit next to);
* ``best_solution`` answered from the cache picks the same individual
  as one answered by recomputation, through task churn and availability
  changes;
* the counters partition exactly: every requested cost is evaluated or
  carried.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduling.ga import ELITE_COUNT, GAConfig, GAScheduler


def _duration(task_id: int, count: int) -> float:
    return 10.0 / count + task_id % 3


def _make_ga(seed: int, n_tasks: int, *, population_size: int = 12,
             **config) -> GAScheduler:
    ga = GAScheduler(
        4,
        _duration,
        np.random.default_rng(seed),
        GAConfig(population_size=population_size, **config),
    )
    for tid in range(n_tasks):
        ga.add_task(tid, deadline=50.0 + 10.0 * tid)
    return ga


class TestEvalReuseEquivalence:
    @given(
        seed=st.integers(0, 2**31),
        n_tasks=st.integers(1, 6),
        population_size=st.integers(8, 16),
    )
    @settings(max_examples=15, deadline=None)
    def test_evolve_reuse_equals_naive(self, seed, n_tasks, population_size):
        """The costs evolve carries equal a naive re-evaluation."""
        free = [2.0, 0.0, 5.0, 1.0]
        ga = _make_ga(seed, n_tasks, population_size=population_size)
        ga.evolve(5, free, 1.5)
        fresh = ga._costs(ga._order, ga._masks, free, 1.5)
        np.testing.assert_allclose(ga.last_costs, fresh, rtol=1e-12, atol=1e-12)

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=10, deadline=None)
    def test_equality_survives_churn_and_availability_change(self, seed):
        """A cached ``best_solution`` equals a recomputed one through churn.

        Cache invalidation on add/remove/availability is exercised too.
        """
        picks = {}
        for cached in (True, False):
            ga = _make_ga(seed, 5)
            ga.evolve(3, [0.0] * 4, 0.0)
            ga.best_solution([0.0] * 4, 0.0)
            ga.remove_task(1)
            ga.remove_task(4)
            ga.add_task(7, deadline=90.0)
            ga.evolve(3, [2.0, 0.0, 5.0, 1.0], 1.5)
            if not cached:
                ga._invalidate_cost_cache()
            best = ga.best_solution([2.0, 0.0, 5.0, 1.0], 1.5)
            picks[cached] = (
                best.ordering, [best.mask(t).tolist() for t in best.ordering],
                ga.stats.event_cache_hits,
            )
        assert picks[True][:2] == picks[False][:2]
        assert picks[True][2] == picks[False][2] + 1

    @given(seed=st.integers(0, 2**31), n_tasks=st.integers(1, 5))
    @settings(max_examples=10, deadline=None)
    def test_counters_partition_rows_costed(self, seed, n_tasks):
        """Every requested cost is evaluated or carried — exactly."""
        ga = _make_ga(seed, n_tasks)
        ga.evolve(5, [0.0] * 4, 0.0)
        ga.best_solution([1.0, 0.0, 0.0, 0.0], 0.0)  # a cache miss
        stats = ga.stats
        assert stats.rows_costed == stats.rows_evaluated + stats.carry_hits
        assert stats.carry_hits == 5 * ELITE_COUNT
        assert 0.0 <= stats.hit_rate <= 1.0
