"""Tests for the demand-driven evaluation cache (§2.2)."""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.pace.cache import EvaluationCache
from tests.oracles import add_stats, cache_size, clear, contains, invalidate


class TestGetOrCompute:
    def test_miss_then_hit(self):
        cache = EvaluationCache()
        calls = []

        def compute():
            calls.append(1)
            return 7.0

        assert cache.get_or_compute("k", compute) == 7.0
        assert cache.get_or_compute("k", compute) == 7.0
        assert len(calls) == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_distinct_keys(self):
        cache = EvaluationCache()
        cache.get_or_compute(("a", 1), lambda: 1.0)
        cache.get_or_compute(("a", 2), lambda: 2.0)
        assert cache_size(cache) == 2

    def test_hit_rate(self):
        cache = EvaluationCache()
        assert cache.stats.hit_rate == 0.0
        cache.get_or_compute("k", lambda: 1.0)
        cache.get_or_compute("k", lambda: 1.0)
        cache.get_or_compute("k", lambda: 1.0)
        assert cache.stats.hit_rate == pytest.approx(2.0 / 3.0)


class TestCapacity:
    def test_unbounded_by_default(self):
        cache = EvaluationCache()
        for i in range(1000):
            cache.get_or_compute(i, lambda i=i: float(i))
        assert cache_size(cache) == 1000
        assert cache.stats.evictions == 0

    def test_bounded_evicts_oldest(self):
        cache = EvaluationCache(max_size=2)
        cache.get_or_compute("a", lambda: 1.0)
        cache.get_or_compute("b", lambda: 2.0)
        cache.get_or_compute("c", lambda: 3.0)
        assert cache_size(cache) == 2
        assert not contains(cache, "a")
        assert contains(cache, "b") and contains(cache, "c")
        assert cache.stats.evictions == 1

    def test_bad_max_size_rejected(self):
        with pytest.raises(ValidationError):
            EvaluationCache(max_size=0)


class TestManagement:
    def test_peek_does_not_count(self):
        cache = EvaluationCache()
        cache.get_or_compute("k", lambda: 1.0)
        assert cache.peek("k") == 1.0
        assert cache.peek("missing") is None
        assert cache.stats.requests == 1

    def test_invalidate(self):
        cache = EvaluationCache()
        cache.get_or_compute("k", lambda: 1.0)
        assert invalidate(cache, "k") is True
        assert invalidate(cache, "k") is False
        assert not contains(cache, "k")

    def test_clear_preserves_stats(self):
        cache = EvaluationCache()
        cache.get_or_compute("k", lambda: 1.0)
        clear(cache)
        assert cache_size(cache) == 0
        assert cache.stats.misses == 1

    def test_stats_reset(self):
        cache = EvaluationCache()
        cache.get_or_compute("k", lambda: 1.0)
        cache.stats.reset()
        assert cache.stats.requests == 0


class TestGetMany:
    def test_mixed_hits_and_misses(self):
        cache = EvaluationCache()
        cache.get_or_compute("a", lambda: 1.0)
        computed = []

        def compute(key):
            computed.append(key)
            return float(len(key))

        values = cache.get_many(["a", "bb", "ccc"], compute)
        assert values == [1.0, 2.0, 3.0]
        assert computed == ["bb", "ccc"]
        assert cache.stats.hits == 1
        assert cache.stats.misses == 3  # one scalar miss + two bulk misses

    def test_stats_identical_to_scalar_lookups(self):
        keys = ["a", "b", "a", "c", "b", "a"]
        bulk = EvaluationCache()
        bulk.get_many(keys, lambda key: 1.0)
        scalar = EvaluationCache()
        for key in keys:
            scalar.get_or_compute(key, lambda: 1.0)
        assert bulk.stats == scalar.stats
        assert cache_size(bulk) == cache_size(scalar)

    def test_repeated_key_hits_within_one_call(self):
        cache = EvaluationCache()
        values = cache.get_many(["k", "k", "k"], lambda key: 9.0)
        assert values == [9.0] * 3
        assert cache.stats.misses == 1
        assert cache.stats.hits == 2

    def test_bounded_eviction_preserved(self):
        cache = EvaluationCache(max_size=2)
        cache.get_many(["a", "b", "c"], lambda key: 0.0)
        assert cache_size(cache) == 2
        assert not contains(cache, "a")
        assert cache.stats.evictions == 1

    def test_empty_keys(self):
        cache = EvaluationCache()
        assert cache.get_many([], lambda key: 0.0) == []
        assert cache.stats.requests == 0


class TestCacheStatsMerge:
    def test_add_returns_new(self):
        from repro.pace.cache import CacheStats

        a = CacheStats(hits=1, misses=2, evictions=3)
        b = CacheStats(hits=10, misses=20, evictions=30)
        merged = add_stats(a, b)
        assert merged == CacheStats(hits=11, misses=22, evictions=33)
        assert a == CacheStats(hits=1, misses=2, evictions=3)  # unchanged

    def test_iadd_accumulates(self):
        from repro.pace.cache import CacheStats

        total = CacheStats()
        total = add_stats(total, CacheStats(hits=2, misses=1, evictions=0))
        total = add_stats(total, CacheStats(hits=3, misses=0, evictions=1))
        assert total == CacheStats(hits=5, misses=1, evictions=1)

    def test_merge_rejects_other_types(self):
        from repro.pace.cache import CacheStats

        with pytest.raises(TypeError):
            add_stats(CacheStats(), 1)
