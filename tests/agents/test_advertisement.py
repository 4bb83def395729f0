"""Tests for the advertisement strategies, one object per grid."""

from __future__ import annotations

import numpy as np
import pytest

from repro.agents.advertisement import (
    PUSH_MIN_INTERVAL,
    EventPushStrategy,
    NoAdvertisement,
    PullRounds,
)
from repro.agents.agent import Agent
from repro.agents.hierarchy import wire_hierarchy
from repro.errors import ValidationError
from repro.net.message import Endpoint
from repro.net.transport import Transport
from repro.pace.evaluation import EvaluationEngine
from repro.pace.hardware import SGI_ORIGIN_2000
from repro.pace.resource import ResourceModel
from repro.scheduling.scheduler import LocalScheduler, SchedulingPolicy
from repro.tasks.task import Environment, TaskRequest
from tests.oracles import registry


def build_pair(sim, make_strategy):
    """A parent and a child sharing the one strategy that
    ``make_strategy(transport)`` builds."""
    transport = Transport(sim)
    strategy = make_strategy(transport)
    evaluator = EvaluationEngine()
    agents = {}
    for i, name in enumerate(("P", "C")):
        scheduler = LocalScheduler(
            sim,
            ResourceModel.homogeneous(name, SGI_ORIGIN_2000, 2),
            evaluator,
            policy=SchedulingPolicy.GA,
            rng=np.random.default_rng(i),
            generations_per_event=2,
        )
        agents[name] = Agent(
            name,
            Endpoint(f"{name.lower()}.grid", 1000 + i),
            scheduler,
            transport,
            advertisement=strategy,
        )
    hierarchy = wire_hierarchy(agents, {"P": None, "C": "P"})
    hierarchy.start_all()
    return agents


class TestPeriodicPull:
    def test_interval_validated(self, sim):
        with pytest.raises(ValidationError):
            PullRounds(sim, Transport(sim), 0.0)

    def test_pull_cadence(self, sim):
        agents = build_pair(sim, lambda transport: PullRounds(sim, transport, 10.0))
        sim.run_until(21.0)
        # Immediate pull at t=0 plus rounds at 10 and 20.
        assert agents["P"].stats.pulls_answered == 3
        assert agents["C"].stats.pulls_answered == 3

    def test_double_start_rejected(self, sim):
        agents = build_pair(sim, lambda transport: PullRounds(sim, transport, 5.0))
        with pytest.raises(ValidationError):
            agents["P"].start()

    def test_agents_share_one_round(self, sim):
        build_pair(sim, lambda transport: PullRounds(sim, transport, 10.0))
        assert [event.label for event in sim.queued()] == ["pull-round"]

    def test_stop_halts_pulls(self, sim):
        agents = build_pair(sim, lambda transport: PullRounds(sim, transport, 10.0))
        sim.run_until(1.0)
        for agent in agents.values():
            agent.stop()
        before = agents["P"].stats.pulls_answered
        sim.run_until(100.0)
        assert agents["P"].stats.pulls_answered == before


class TestEventPush:
    def test_initial_push_seeds_registry(self, sim):
        agents = build_pair(sim, lambda transport: EventPushStrategy())
        sim.run_until(0.5)
        assert agents["C"].endpoint in registry(agents["P"])
        assert agents["P"].endpoint in registry(agents["C"])

    def test_push_on_service_change(self, sim):
        agents = build_pair(sim, lambda transport: EventPushStrategy())
        sim.run_until(PUSH_MIN_INTERVAL)
        before = agents["P"].stats.advertisements_received
        # Submitting to C changes its service state -> push to P.
        request = TaskRequest(
            application=__import__("repro.pace.workloads", fromlist=["x"])
            .paper_applications()["closure"],
            environment=Environment.TEST,
            deadline=sim.now + 100.0,
            submit_time=sim.now,
        )
        agents["C"].scheduler.submit(request)
        sim.run_until(2.0)
        assert agents["P"].stats.advertisements_received > before

    def test_rate_limit(self, sim):
        agents = build_pair(sim, lambda transport: EventPushStrategy())
        sim.run_until(PUSH_MIN_INTERVAL / 2)
        baseline = agents["P"].stats.advertisements_received
        for _ in range(5):
            request = TaskRequest(
                application=__import__("repro.pace.workloads", fromlist=["x"])
                .paper_applications()["closure"],
                environment=Environment.TEST,
                deadline=sim.now + 100.0,
                submit_time=sim.now,
            )
            agents["C"].scheduler.submit(request)
        sim.run_until(PUSH_MIN_INTERVAL * 0.9)
        # All changes inside the PUSH_MIN_INTERVAL window collapse.
        assert agents["P"].stats.advertisements_received == baseline

    def test_double_start_rejected(self, sim):
        agents = build_pair(sim, lambda transport: EventPushStrategy())
        with pytest.raises(ValidationError):
            agents["C"].start()

    def test_churn_cycles_do_not_leak_listeners(self, sim):
        # Regression: stop() used to leave the service-change listener
        # subscribed, so every crash/restart cycle stacked one more
        # subscription and each service change pushed N duplicate adverts.
        agents = build_pair(sim, lambda transport: EventPushStrategy())
        child = agents["C"]
        assert len(child.scheduler._service_listeners) == 1
        for _ in range(5):
            child.deactivate()
            assert len(child.scheduler._service_listeners) == 0
            child.reactivate()
            assert len(child.scheduler._service_listeners) == 1

    def test_push_after_restart_is_single(self, sim):
        agents = build_pair(sim, lambda transport: EventPushStrategy())
        child, parent = agents["C"], agents["P"]
        sim.run_until(1.0)
        child.deactivate()
        child.reactivate()
        baseline = parent.stats.advertisements_received
        request = TaskRequest(
            application=__import__("repro.pace.workloads", fromlist=["x"])
            .paper_applications()["closure"],
            environment=Environment.TEST,
            deadline=sim.now + 100.0,
            submit_time=sim.now,
        )
        child.scheduler.submit(request)
        sim.run_until(sim.now + 5.0)
        # Exactly one advert per service change — not one per past restart.
        assert parent.stats.advertisements_received == baseline + 1


class TestNoAdvertisement:
    def test_registries_stay_empty(self, sim):
        agents = build_pair(sim, lambda transport: NoAdvertisement())
        sim.run_until(60.0)
        assert registry(agents["P"]) == {}
        assert registry(agents["C"]) == {}
