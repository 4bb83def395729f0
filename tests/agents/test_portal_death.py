"""Tests for portal behaviour when the entry agent is permanently dead.

The resilience layer's worst case: every dispatch attempt fails (or goes
unanswered) because the one agent the user submits through never comes
back.  The portal must give up after ``MAX_RETRIES``, synthesize a
terminal failure result, tear down every timer it armed, and leave a
trace the invariant checker accepts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.agents.agent import Agent
from repro.agents.portal import UserPortal
from repro.agents.resilience import MAX_RETRIES, ResilienceConfig, timeout_for
from repro.net.message import Endpoint
from repro.net.transport import Transport
from repro.obs import MemorySink, Tracer
from repro.obs.check import check_trace
from repro.obs.records import PortalResult, PortalRetry
from repro.pace.evaluation import EvaluationEngine
from repro.pace.hardware import SGI_ORIGIN_2000, SUN_SPARC_STATION_2
from repro.pace.resource import ResourceModel
from repro.scheduling.scheduler import LocalScheduler, SchedulingPolicy
from repro.tasks.task import Environment
from tests.oracles import pending_ack_count

RESILIENCE = ResilienceConfig(enabled=True)

#: Virtual time by which a corpse-bound submission has used every backoff.
EXHAUSTED = sum(timeout_for(attempt) for attempt in range(MAX_RETRIES + 1))


class DeadEntryRig:
    """One agent + one resilient portal, with a full trace attached."""

    def __init__(
        self,
        sim,
        *,
        agent_resilience: ResilienceConfig = RESILIENCE,
        platform=SGI_ORIGIN_2000,
    ):
        self.sim = sim
        self.tracer = Tracer(MemorySink())
        self.transport = Transport(sim)
        resource = ResourceModel.homogeneous("A1", platform, 4)
        self.scheduler = LocalScheduler(
            sim,
            resource,
            EvaluationEngine(),
            policy=SchedulingPolicy.GA,
            rng=np.random.default_rng(7),
            generations_per_event=5,
        )
        self.agent = Agent(
            "A1",
            Endpoint("a1.grid", 1000),
            self.scheduler,
            self.transport,
            resilience=agent_resilience,
            tracer=self.tracer,
        )
        self.portal = UserPortal(
            self.transport, sim, resilience=RESILIENCE, tracer=self.tracer
        )
        self.agent.start()


@pytest.fixture
def rig(sim):
    return DeadEntryRig(sim)


class TestPermanentEntryAgentDeath:
    def submit_to_corpse(self, rig, specs):
        rig.agent.deactivate()
        rid = rig.portal.submit(
            rig.agent, specs["sweep3d"].model, Environment.TEST,
            rig.sim.now + 100.0,
        )
        # Run past the last backoff, when the portal gives up.
        rig.sim.run_until(EXHAUSTED)
        return rid

    def test_gives_up_with_a_terminal_failure(self, rig, specs):
        rid = self.submit_to_corpse(rig, specs)
        result = rig.portal.result(rid)
        assert result is not None and not result.success
        assert result.request_id == rid
        assert rig.portal.pending_count == 0
        assert rig.portal.stats.gave_up == 1
        # The first dispatch plus every retry hit the dead endpoint.
        assert rig.portal.stats.submit_failures == MAX_RETRIES + 1
        assert rig.portal.stats.retries == MAX_RETRIES

    def test_tears_down_every_timer(self, rig, specs):
        self.submit_to_corpse(rig, specs)
        assert pending_ack_count(rig.portal) == 0
        assert not rig.portal._redispatches  # noqa: SLF001 - teardown proof

    def test_trace_records_the_failure(self, rig, specs):
        rid = self.submit_to_corpse(rig, specs)
        records = rig.tracer.records
        retries = [r for r in records if isinstance(r, PortalRetry)]
        assert [r.attempt for r in retries] == list(range(1, MAX_RETRIES + 1))
        results = [r for r in records if isinstance(r, PortalResult)]
        assert len(results) == 1
        assert results[0].request_id == rid
        assert results[0].synthetic and not results[0].success

    def test_trace_is_checker_clean(self, rig, specs):
        self.submit_to_corpse(rig, specs)
        assert check_trace(rig.tracer.records) == []

    def test_unacked_but_alive_agent_still_resolves(self, sim, specs):
        """A mute (never-ACKing) entry agent is not a dead one.

        The portal exhausts its retries and synthesizes a failure, but
        the agent did accept the request — when the real result lands,
        it overwrites the synthetic failure.  Slow hardware makes the real
        result land after the portal has used every backoff.
        """
        rig = DeadEntryRig(
            sim, agent_resilience=ResilienceConfig(), platform=SUN_SPARC_STATION_2
        )
        rid = rig.portal.submit(
            rig.agent, specs["sweep3d"].model, Environment.TEST,
            sim.now + 500.0,
        )
        sim.run_until(400.0)
        result = rig.portal.result(rid)
        assert result is not None and result.success
        assert rig.portal.stats.gave_up == 1
        assert rig.portal.stats.duplicate_results >= 0
        assert check_trace(rig.tracer.records) == []
