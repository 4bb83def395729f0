"""Tests for the trace sinks, the tracer, and the metrics instruments."""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.records import EventFired, TaskQueued
from repro.obs.trace import MemorySink, Tracer, TraceSink
from tests.oracles import clear


def _record(t=0.0, label="tick"):
    return EventFired(t=t, label=label, priority=0, seq=0)


class TestMemorySink:
    def test_retains_in_order(self):
        sink = MemorySink()
        for i in range(3):
            sink.emit(_record(t=float(i)))
        assert [r.t for r in sink.records] == [0.0, 1.0, 2.0]

    def test_clear(self):
        sink = MemorySink()
        sink.emit(_record())
        clear(sink)
        assert sink.records == []


class TestTracer:
    def test_defaults_to_memory_sink(self):
        tracer = Tracer()
        tracer.emit(_record())
        assert len(tracer.records) == 1

    def test_counts_per_kind(self):
        tracer = Tracer()
        tracer.emit(_record())
        tracer.emit(_record())
        tracer.emit(TaskQueued(t=0.0, resource="S1", task_id=0))
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["records.sim.event"] == 2
        assert counters["records.sched.queue"] == 1

    def test_records_requires_memory_sink(self):
        tracer = Tracer(TraceSink())
        with pytest.raises(ValidationError):
            tracer.records


class TestCounter:
    def test_inc(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            Counter("c").inc(-1)


class TestRegistry:
    def test_instruments_are_cached(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_snapshot_sorted(self):
        registry = MetricsRegistry()
        registry.counter("zeta").inc()
        registry.counter("alpha").inc(2)
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["alpha", "zeta"]
        assert snap["counters"]["alpha"] == 2
