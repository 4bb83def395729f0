"""Reset symmetry: every stateful counter owner returns to its seed state.

The fault-injection and observability layers grew a family of run-scoped
counters (transport tallies, the dropped-message ring, fault-plan
attribution counts, agent/portal/reuse stats, metric registries).  A
reset must undo *all* of them — a counter that survives ``reset()`` makes
back-to-back experiment runs on reused plumbing silently non-comparable.
Each test drives a component until its counters are provably non-zero,
resets, and asserts the seed state byte-for-byte.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from repro.agents.agent import AgentStats
from repro.agents.portal import PortalStats
from repro.net.faults import FaultPlan, FaultPlanSpec
from repro.net.message import Endpoint, Message, MessageKind
from repro.net.transport import Transport
from repro.obs.metrics import MetricsRegistry
from repro.scheduling.evalreuse import EvalReuseStats
from repro.sim.engine import Engine
from repro.sim.events import Priority


# --------------------------------------------------------------------- engine


class TestEngineReset:
    def test_reset_restores_constructed_state(self):
        sim = Engine(start_time=5.0)
        fired = []
        sim.schedule(6.0, lambda: fired.append("a"))
        sim.schedule(7.0, lambda: fired.append("b"))
        sim.schedule(100.0, lambda: fired.append("never"))
        sim.run_until(10.0)
        assert fired == ["a", "b"]
        assert sim.pending == 1

        sim.reset()
        assert sim.now == 5.0
        assert sim.pending == 0
        assert sim.fired_count == 0
        assert sim.next_event_time() is None

    def test_reset_engine_replays_like_fresh(self):
        """A reset engine orders a seeded scenario exactly like a new one."""

        def run_scenario(sim: Engine):
            order = []
            # Same time + priority ties are broken by sequence number, so
            # the trace is sensitive to leftover sequence state.
            sim.schedule(2.0, lambda: order.append("tie-1"), priority=Priority.ADVERTISEMENT)
            sim.schedule(2.0, lambda: order.append("tie-2"), priority=Priority.ADVERTISEMENT)
            sim.schedule(1.0, lambda: order.append("early"))
            sim.run_until(5.0)
            return order, sim.fired_count, sim.now

        recycled = Engine()
        recycled.schedule(3.0, lambda: None)
        recycled.run_until(10.0)
        recycled.schedule(20.0, lambda: None)  # left pending on purpose
        recycled.reset()

        assert run_scenario(recycled) == run_scenario(Engine())

    def test_reset_inside_callback_is_rejected(self):
        from repro.errors import SimulationError

        sim = Engine()
        sim.schedule(1.0, sim.reset)
        with pytest.raises(SimulationError):
            sim.run_until(2.0)


# ------------------------------------------------------------------ transport


def _loopback_transport(loss: float = 0.0):
    """A transport with two endpoints; returns (sim, transport, inbox)."""
    sim = Engine()
    plan = None
    endpoints = {
        "a": Endpoint("a.grid", 1),
        "b": Endpoint("b.grid", 2),
    }
    if loss:
        plan = FaultPlan(
            FaultPlanSpec(drop_probability=loss),
            rng=np.random.default_rng(7),
            endpoints=endpoints,
        )
    transport = Transport(sim)
    transport.set_fault_plan(plan)
    inbox = []
    transport.register(endpoints["a"], inbox.append)
    transport.register(endpoints["b"], inbox.append)
    return sim, transport, endpoints, inbox


class TestTransportReset:
    def _ping(self, sim, transport, endpoints, n):
        for _ in range(n):
            transport.send(
                Message(
                    MessageKind.ADVERTISE,
                    endpoints["a"],
                    endpoints["b"],
                    payload=None,
                )
            )
        sim.run_until(sim.now + 1.0)

    def test_counters_and_ring_zeroed(self):
        sim, transport, endpoints, inbox = _loopback_transport(loss=1.0)
        self._ping(sim, transport, endpoints, 5)
        assert transport.sent == 5
        assert transport.fault_dropped_count == 5
        assert transport.dropped_recent  # the ring holds the corpses

        transport.reset_counters()
        assert transport.sent == 0
        assert transport.delivered == 0
        assert transport.dropped_count == 0
        assert transport.fault_dropped_count == 0
        assert transport.dropped_recent == []

    def test_fault_plan_attribution_zeroed(self):
        sim, transport, endpoints, inbox = _loopback_transport(loss=1.0)
        self._ping(sim, transport, endpoints, 3)
        plan = transport.fault_plan
        assert plan.dropped_by_chance == 3

        transport.reset_counters()
        assert plan.dropped_by_chance == 0
        assert plan.dropped_by_partition == 0
        assert plan.jittered == 0

    def test_reset_preserves_configuration(self):
        """Endpoints and the installed fault plan are config, not run state."""
        sim, transport, endpoints, inbox = _loopback_transport(loss=0.0)
        self._ping(sim, transport, endpoints, 2)
        assert len(inbox) == 2

        transport.reset_counters()
        self._ping(sim, transport, endpoints, 1)
        assert len(inbox) == 3  # handlers survived
        assert transport.sent == 1
        assert transport.delivered == 1

    def test_reset_without_fault_plan_is_safe(self):
        sim, transport, endpoints, inbox = _loopback_transport(loss=0.0)
        transport.reset_counters()
        assert transport.sent == 0


# ---------------------------------------------------------------- stats dataclasses


@pytest.mark.parametrize(
    "stats_cls", [AgentStats, PortalStats, EvalReuseStats], ids=lambda c: c.__name__
)
def test_stats_reset_zeroes_every_field(stats_cls):
    """reset() restores every dataclass field to its declared default.

    Field-driven, so a counter added later is covered automatically —
    forgetting to reset it fails here instead of skewing experiment runs.
    """
    stats = stats_cls()
    for i, f in enumerate(fields(stats_cls), start=1):
        setattr(stats, f.name, i)  # provably != default (defaults are 0)
    assert all(getattr(stats, f.name) != f.default for f in fields(stats_cls))

    stats.reset()
    for f in fields(stats_cls):
        assert getattr(stats, f.name) == f.default, f.name


# ------------------------------------------------------------------- metrics


class TestMetricsReset:
    def test_registry_reset_clears_counters_and_histograms(self):
        registry = MetricsRegistry()
        registry.counter("messages").inc(4)
        hist = registry.histogram("latency")
        hist.observe(0.5)
        hist.observe(2.0)

        registry.reset()
        assert registry.counter("messages").value == 0
        snap = registry.histogram("latency").snapshot()
        assert snap["count"] == 0
        assert snap["sum"] == 0.0

    def test_reset_keeps_instrument_identity(self):
        """The same instrument objects remain registered after reset."""
        registry = MetricsRegistry()
        counter = registry.counter("messages")
        counter.inc()
        registry.reset()
        assert registry.counter("messages") is counter
