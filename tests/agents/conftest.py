"""Fixtures for agent-layer tests: a small three-agent grid."""

from __future__ import annotations

import numpy as np
import pytest

from repro.agents.advertisement import PullRounds
from repro.agents.agent import Agent
from repro.agents.discovery import DiscoveryConfig
from repro.agents.hierarchy import wire_hierarchy
from repro.agents.portal import UserPortal
from repro.net.message import Endpoint
from repro.net.transport import Transport
from repro.pace.evaluation import EvaluationEngine
from repro.pace.hardware import SGI_ORIGIN_2000, SUN_SPARC_STATION_2
from repro.pace.resource import ResourceModel
from repro.scheduling.scheduler import LocalScheduler, SchedulingPolicy


class SmallGrid:
    """Head A1 (fast) with children A2 (fast) and A3 (slow), 4 nodes each."""

    def __init__(self, sim, *, pull_interval: float = 10.0, strict: bool = False):
        self.sim = sim
        self.transport = Transport(sim)
        self.evaluator = EvaluationEngine()
        platforms = {
            "A1": SGI_ORIGIN_2000,
            "A2": SGI_ORIGIN_2000,
            "A3": SUN_SPARC_STATION_2,
        }
        self.schedulers = {}
        rounds = PullRounds(sim, self.transport, pull_interval)
        agents = {}
        for i, (name, platform) in enumerate(platforms.items()):
            resource = ResourceModel.homogeneous(name, platform, 4)
            scheduler = LocalScheduler(
                self.sim,
                resource,
                self.evaluator,
                policy=SchedulingPolicy.GA,
                rng=np.random.default_rng(100 + i),
                generations_per_event=5,
            )
            self.schedulers[name] = scheduler
            agents[name] = Agent(
                name,
                Endpoint(f"{name.lower()}.grid", 1000 + i),
                scheduler,
                self.transport,
                discovery_config=DiscoveryConfig(strict=strict),
                advertisement=rounds,
            )
        self.agents = agents
        self.hierarchy = wire_hierarchy(
            agents, {"A1": None, "A2": "A1", "A3": "A1"}
        )
        self.portal = UserPortal(self.transport, self.sim)
        self.hierarchy.start_all()

    def drain(self, max_steps: int = 200_000) -> None:
        """Step the engine until every submitted request has a result.

        ``sim.run()`` never terminates here — the periodic pull processes
        re-arm forever — so agent tests drive the clock this way, exactly
        like the experiment runner.
        """
        while self.portal.pending_count > 0:
            if not self.sim.step():
                raise AssertionError("event queue drained with requests pending")
            max_steps -= 1
            if max_steps <= 0:
                raise AssertionError("drain exceeded its step budget")


@pytest.fixture
def grid(sim):
    return SmallGrid(sim)


@pytest.fixture
def strict_grid(sim):
    return SmallGrid(sim, strict=True)
