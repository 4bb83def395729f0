"""Tests for hierarchy construction and validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.agents.agent import Agent
from repro.agents.hierarchy import wire_hierarchy
from repro.errors import HierarchyError
from repro.net.message import Endpoint
from repro.net.transport import Transport
from repro.pace.evaluation import EvaluationEngine
from repro.pace.hardware import SGI_ORIGIN_2000
from repro.pace.resource import ResourceModel
from repro.scheduling.scheduler import LocalScheduler, SchedulingPolicy
from tests.oracles import depth, hierarchy_agent, hierarchy_size, leaves


def make_agents(sim, names):
    transport = Transport(sim)
    evaluator = EvaluationEngine()
    agents = {}
    for i, name in enumerate(names):
        scheduler = LocalScheduler(
            sim,
            ResourceModel.homogeneous(name, SGI_ORIGIN_2000, 2),
            evaluator,
            policy=SchedulingPolicy.FIFO,
        )
        agents[name] = Agent(
            name, Endpoint(f"{name.lower()}.grid", 1000 + i), scheduler, transport
        )
    return agents


class TestWiring:
    def test_tree_wired(self, sim):
        agents = make_agents(sim, ["H", "L", "R"])
        hierarchy = wire_hierarchy(agents, {"H": None, "L": "H", "R": "H"})
        assert hierarchy.head is agents["H"]
        assert agents["L"].parent is agents["H"]
        assert {c.name for c in agents["H"].children} == {"L", "R"}
        assert hierarchy_size(hierarchy) == 3

    def test_depth(self, sim):
        agents = make_agents(sim, ["a", "b", "c"])
        hierarchy = wire_hierarchy(agents, {"a": None, "b": "a", "c": "b"})
        assert depth(hierarchy, "a") == 0
        assert depth(hierarchy, "c") == 2

    def test_leaves(self, sim):
        agents = make_agents(sim, ["a", "b", "c"])
        hierarchy = wire_hierarchy(agents, {"a": None, "b": "a", "c": "b"})
        assert [a.name for a in leaves(hierarchy)] == ["c"]

    def test_agent_lookup(self, sim):
        agents = make_agents(sim, ["a", "b"])
        hierarchy = wire_hierarchy(agents, {"a": None, "b": "a"})
        assert hierarchy_agent(hierarchy, "b").name == "b"
        with pytest.raises(HierarchyError):
            hierarchy_agent(hierarchy, "zz")


class TestValidation:
    def test_no_head_rejected(self, sim):
        agents = make_agents(sim, ["a", "b"])
        with pytest.raises(HierarchyError, match="exactly one head"):
            wire_hierarchy(agents, {"a": "b", "b": "a"})

    def test_two_heads_rejected(self, sim):
        agents = make_agents(sim, ["a", "b"])
        with pytest.raises(HierarchyError, match="exactly one head"):
            wire_hierarchy(agents, {"a": None, "b": None})

    def test_unknown_parent_rejected(self, sim):
        agents = make_agents(sim, ["a", "b"])
        with pytest.raises(HierarchyError, match="unknown parent"):
            wire_hierarchy(agents, {"a": None, "b": "zz"})

    def test_self_parent_rejected(self, sim):
        agents = make_agents(sim, ["a", "b"])
        with pytest.raises(HierarchyError):
            wire_hierarchy(agents, {"a": None, "b": "b"})

    def test_cycle_rejected(self, sim):
        agents = make_agents(sim, ["a", "b", "c", "d"])
        with pytest.raises(HierarchyError, match="cycle"):
            wire_hierarchy(
                agents, {"a": None, "b": "c", "c": "d", "d": "b"}
            )

    def test_name_mismatch_rejected(self, sim):
        agents = make_agents(sim, ["a"])
        with pytest.raises(HierarchyError):
            wire_hierarchy(agents, {"a": None, "b": "a"})
