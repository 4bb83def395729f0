"""Tests for agent-failure tolerance: a dead neighbour must not crash the grid."""

from __future__ import annotations

import pytest

from repro.tasks.task import Environment
from tests.oracles import registry


class TestAgentDeath:
    def test_deactivate_unregisters(self, grid):
        agent = grid.agents["A2"]
        agent.deactivate()
        assert not grid.transport.is_registered(agent.endpoint)
        # Idempotent.
        agent.deactivate()

    def test_pulls_tolerate_dead_neighbour(self, grid, sim):
        sim.run_until(0.5)  # initial advertisements exchanged
        grid.agents["A2"].deactivate()
        sim.run_until(30.5)  # three more pull rounds
        head = grid.agents["A1"]
        assert head.stats.send_failures >= 3
        # The dead agent's stale record is dropped from the registry.
        assert grid.agents["A2"].endpoint not in registry(head)

    def test_requests_survive_neighbour_death(self, grid, sim, specs):
        """Requests routed while a target is dead get absorbed, not lost."""
        sim.run_until(1.0)
        # A3 (slow) will want to dispatch tight-deadline work to A1/A2.
        grid.agents["A2"].deactivate()
        rids = [
            grid.portal.submit(
                grid.agents["A3"], specs["sweep3d"].model, Environment.TEST,
                sim.now + 40.0,
            )
            for _ in range(6)
        ]
        grid.drain()
        results = [grid.portal.result(r) for r in rids]
        assert all(r is not None for r in results)
        executed = [r for r in results if r.success]
        assert executed, "the surviving grid must execute requests"
        assert all(r.resource_name in ("A1", "A3") for r in executed)

    def test_forward_failure_absorbs_locally(self, grid, sim, specs):
        """A forward to a dead agent falls back to local submission."""
        sim.run_until(0.5)  # A3 learns about A1 (its only upward neighbour)
        grid.agents["A1"].deactivate()
        # Tight deadline: A3's own service can't meet it, so discovery
        # targets A1 — which is dead.
        rid = grid.portal.submit(
            grid.agents["A3"], specs["sweep3d"].model, Environment.TEST,
            sim.now + 5.0,
        )
        grid.drain()
        result = grid.portal.result(rid)
        assert result.success
        assert result.resource_name == "A3"
        assert grid.agents["A3"].stats.send_failures >= 1

    def test_grid_functions_after_head_death(self, grid, sim, specs):
        sim.run_until(1.0)
        grid.agents["A1"].deactivate()
        rids = [
            grid.portal.submit(
                grid.agents["A2"], specs["closure"].model, Environment.TEST,
                sim.now + 100.0,
            )
            for _ in range(4)
        ]
        grid.drain()
        assert all(grid.portal.result(r).success for r in rids)
