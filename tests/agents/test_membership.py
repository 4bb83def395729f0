"""Tests for the membership layer: failure detection and self-healing.

A three-level grid (head A1 → coordinators B1/B2 → leaves C1/C2 under
B1) exercises every repair path: suspicion and recovery of a slow peer,
confirmation and link severing of a dead one, orphan adoption by the
eldest sibling, grandparent re-attachment, head promotion, and the
restart rejoin handshake.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.agents.advertisement import PullRounds
from repro.agents.agent import Agent
from repro.agents.discovery import DiscoveryConfig
from repro.agents.hierarchy import wire_hierarchy
from repro.agents.membership import ALIVE, SUSPECTED, MembershipConfig
from repro.agents.portal import UserPortal
from repro.net.message import Endpoint
from repro.net.transport import Transport
from repro.pace.evaluation import EvaluationEngine
from repro.pace.hardware import SGI_ORIGIN_2000
from repro.pace.resource import ResourceModel
from repro.scheduling.scheduler import LocalScheduler, SchedulingPolicy
from tests.oracles import next_of_kin, orphaned, state_of

MEMBERSHIP = MembershipConfig(enabled=True)


class DeepGrid:
    """A1 (head) → B1, B2; B1 → C1, C2 — all on identical hardware."""

    def __init__(self, sim, membership: MembershipConfig = MEMBERSHIP):
        self.sim = sim
        self.transport = Transport(sim)
        self.evaluator = EvaluationEngine()
        names = ["A1", "B1", "B2", "C1", "C2"]
        rounds = PullRounds(sim, self.transport, 10.0)
        agents = {}
        for i, name in enumerate(names):
            resource = ResourceModel.homogeneous(name, SGI_ORIGIN_2000, 4)
            scheduler = LocalScheduler(
                self.sim,
                resource,
                self.evaluator,
                policy=SchedulingPolicy.GA,
                rng=np.random.default_rng(100 + i),
                generations_per_event=5,
            )
            agents[name] = Agent(
                name,
                Endpoint(f"{name.lower()}.grid", 1000 + i),
                scheduler,
                self.transport,
                discovery_config=DiscoveryConfig(),
                advertisement=rounds,
                membership=membership,
            )
        self.agents = agents
        self.hierarchy = wire_hierarchy(
            agents,
            {"A1": None, "B1": "A1", "B2": "A1", "C1": "B1", "C2": "B1"},
        )
        self.portal = UserPortal(self.transport, self.sim)
        self.hierarchy.start_all()


@pytest.fixture
def deep(sim):
    return DeepGrid(sim)


class TestMembershipConfig:
    def test_defaults_are_off(self):
        assert not MembershipConfig().enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"heartbeat_interval": 0.0},
            {"heartbeat_interval": 5.0, "suspect_after": 5.0},
            {"suspect_after": 6.0, "confirm_after": 6.0},
            {"heal_retry": 0.0},
            {"max_heal_attempts": 0},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        # The detector timings and healing budget are module constants
        # (their relations are checked in tests/test_config_surface.py);
        # a caller passing one is refused, not silently ignored.
        with pytest.raises(TypeError, match=next(iter(kwargs))):
            MembershipConfig(**kwargs)


class TestFailureDetector:
    def test_heartbeats_keep_links_alive(self, deep, sim):
        sim.run_until(10.0)
        a1 = deep.agents["A1"]
        assert a1.detector is not None
        assert a1.detector.stats.heartbeats_sent > 0
        for name in ("B1", "B2"):
            assert state_of(a1.detector, deep.agents[name].endpoint) == ALIVE
        assert a1.detector.stats.suspects == 0

    def test_disabled_membership_builds_no_detector(self, sim):
        grid = DeepGrid(sim, membership=MembershipConfig())
        sim.run_until(10.0)
        for agent in grid.agents.values():
            assert agent.detector is None
            assert agent.healer is None

    def test_silence_suspects_then_quarantines(self, deep, sim):
        sim.run_until(1.0)
        b2 = deep.agents["B2"]
        b2.deactivate()
        sim.run_until(9.0)  # silence >= SUSPECT_AFTER at A1's sweep
        a1 = deep.agents["A1"]
        assert state_of(a1.detector, b2.endpoint) == SUSPECTED
        assert a1.detector.is_quarantined(b2.endpoint)
        assert a1.detector.stats.suspects >= 1
        # The link is quarantined, not severed: B2 is still a child.
        assert b2 in a1.children

    def test_returning_heartbeat_recovers_a_suspect(self, deep, sim):
        sim.run_until(1.0)
        b2 = deep.agents["B2"]
        b2.deactivate()
        sim.run_until(9.0)
        a1 = deep.agents["A1"]
        assert a1.detector.is_quarantined(b2.endpoint)
        b2.reactivate()  # slow, not dead: its next heartbeat clears it
        sim.run_until(12.0)
        assert state_of(a1.detector, b2.endpoint) == ALIVE
        assert not a1.detector.is_quarantined(b2.endpoint)
        assert a1.detector.stats.recoveries >= 1
        assert a1.detector.stats.confirms == 0

    def test_prolonged_silence_confirms_and_severs(self, deep, sim):
        sim.run_until(1.0)
        b2 = deep.agents["B2"]
        b2.deactivate()
        sim.run_until(20.0)  # silence >= CONFIRM_AFTER
        a1 = deep.agents["A1"]
        assert a1.detector.stats.confirms >= 1
        assert b2 not in a1.children
        # Lease state for the severed link is garbage-collected.
        assert state_of(a1.detector, b2.endpoint) == ALIVE

    def test_crash_wipes_detector_leases(self, deep, sim):
        """A crashed process keeps no lease memory (counters are reports)."""
        sim.run_until(1.0)
        b2 = deep.agents["B2"]
        b2.deactivate()
        sim.run_until(9.0)
        a1 = deep.agents["A1"]
        assert a1.detector.is_quarantined(b2.endpoint)
        a1.deactivate()
        assert not a1.detector.running
        assert not a1.detector.is_quarantined(b2.endpoint)


class TestHealing:
    def test_heartbeats_gossip_kin(self, deep, sim):
        sim.run_until(5.0)
        kin = next_of_kin(deep.agents["C2"].healer)
        assert kin is not None
        assert kin.parent == "B1"
        assert kin.grandparent is not None and kin.grandparent[0] == "A1"
        assert [name for name, _ in kin.siblings] == ["C1", "C2"]

    def test_coordinator_death_reparents_the_subtree(self, deep, sim):
        sim.run_until(5.0)  # kin gossip has landed
        deep.agents["B1"].deactivate()
        sim.run_until(30.0)  # confirm (~t=20) + adoption handshakes
        a1, c1, c2 = (deep.agents[n] for n in ("A1", "C1", "C2"))
        # Eldest orphan re-attaches to the grandparent...
        assert c1.parent is a1
        assert c1 in a1.children
        # ...and the younger sibling attaches to the eldest.
        assert c2.parent is c1
        assert c2 in c1.children
        assert c1.healer.stats.orphaned == 1
        assert c2.healer.stats.orphaned == 1
        assert c1.healer.stats.adoptions_completed == 1
        assert c2.healer.stats.adoptions_completed == 1
        assert a1.healer.stats.children_adopted >= 1
        assert c1.healer.repair_durations and c2.healer.repair_durations

    def test_head_death_promotes_the_eldest_child(self, deep, sim):
        sim.run_until(5.0)
        deep.agents["A1"].deactivate()
        sim.run_until(30.0)
        b1, b2 = deep.agents["B1"], deep.agents["B2"]
        # B1 (eldest, no grandparent) roots itself; B2 adopts under it.
        assert b1.parent is None
        assert b1.healer.stats.promotions == 1
        assert b2.parent is b1
        assert b2 in b1.children

    def test_restarted_agent_rejoins_its_parent(self, deep, sim):
        sim.run_until(5.0)
        b2 = deep.agents["B2"]
        b2.deactivate()
        sim.run_until(25.0)  # A1 confirms the death and severs the link
        a1 = deep.agents["A1"]
        assert b2 not in a1.children
        b2.reactivate()
        sim.run_until(30.0)
        assert b2.parent is a1
        assert b2 in a1.children
        assert b2.healer.stats.rejoins == 1

    def test_orphan_without_kin_roots_itself(self, deep, sim):
        # Unit-level: a confirmed death before any kin gossip arrived.
        c2 = deep.agents["C2"]
        assert next_of_kin(c2.healer) is None
        c2.healer.on_parent_dead(deep.agents["B1"])
        assert c2.parent is None
        assert c2.healer.stats.promotions == 1
        assert not orphaned(c2.healer)

    def test_adopter_rejects_cycles(self, deep, sim):
        sim.run_until(5.0)
        a1, b1 = deep.agents["A1"], deep.agents["B1"]
        # B1 asked to adopt its own ancestor A1: refused, tree unchanged.
        b1.healer.handle_adopt(a1.endpoint)
        assert a1 not in b1.children
        assert b1.parent is a1
        assert b1.healer.stats.children_adopted == 0

    def test_duplicate_adopt_is_idempotent(self, deep, sim):
        sim.run_until(5.0)
        a1, c1 = deep.agents["A1"], deep.agents["C1"]
        a1.healer.handle_adopt(c1.endpoint)
        a1.healer.handle_adopt(c1.endpoint)
        assert a1.children.count(c1) == 1
        assert a1.healer.stats.children_adopted == 1
