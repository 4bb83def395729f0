"""Integration tests for agents: advertisement, discovery, dispatch, results."""

from __future__ import annotations

from repro.tasks.task import Environment
from tests.oracles import is_head, registry


class TestServiceInfo:
    def test_reflects_scheduler(self, grid):
        info = grid.agents["A3"].service_info()
        assert info.hardware_type == "SunSPARCstation2"
        assert info.nproc == 4
        assert Environment.TEST in info.environments
        assert info.freetime == 0.0

    def test_neighbours(self, grid):
        head = grid.agents["A1"]
        assert {a.name for a in head.neighbours()} == {"A2", "A3"}
        leaf = grid.agents["A2"]
        assert [a.name for a in leaf.neighbours()] == ["A1"]
        assert is_head(head) and not is_head(leaf)


class TestAdvertisement:
    def test_pull_populates_registries(self, grid, sim):
        sim.run_until(0.5)  # immediate pulls + replies at t=0
        head = grid.agents["A1"]
        assert len(registry(head)) == 2
        leaf_registry = registry(grid.agents["A2"])
        assert list(leaf_registry) == [grid.agents["A1"].endpoint]

    def test_periodic_refresh_updates_freetime(self, grid, sim, specs):
        sim.run_until(0.5)
        head = grid.agents["A1"]
        a2_ep = grid.agents["A2"].endpoint
        assert registry(head)[a2_ep].freetime == 0.0
        # Load A2 directly, then wait for the next pull round.
        grid.portal.submit(
            grid.agents["A2"], specs["sweep3d"].model, Environment.TEST, 500.0
        )
        sim.run_until(10.5)
        assert registry(head)[a2_ep].freetime > 0.0

    def test_pull_counters(self, grid, sim):
        sim.run_until(0.5)
        assert grid.agents["A2"].stats.pulls_answered >= 1
        assert grid.agents["A1"].stats.advertisements_received >= 2


class TestRequestRouting:
    def test_local_when_deadline_met(self, grid, sim, specs):
        rid = grid.portal.submit(
            grid.agents["A1"], specs["closure"].model, Environment.TEST, 100.0
        )
        grid.drain()
        result = grid.portal.result(rid)
        assert result is not None and result.success
        assert result.resource_name == "A1"
        assert result.trace == ("A1",)

    def test_overload_dispatches_away(self, grid, sim, specs):
        """Flooding A3 (slow) must push work to the fast siblings."""
        sim.run_until(1.0)
        rids = [
            grid.portal.submit(
                grid.agents["A3"], specs["sweep3d"].model, Environment.TEST,
                sim.now + 40.0,
            )
            for _ in range(8)
        ]
        grid.drain()
        resources = {grid.portal.result(r).resource_name for r in rids}
        assert resources - {"A3"}, "some requests must leave the slow resource"

    def test_results_always_return(self, grid, sim, specs):
        rids = []
        for i in range(12):
            rids.append(
                grid.portal.submit(
                    grid.agents[f"A{(i % 3) + 1}"],
                    specs["jacobi"].model,
                    Environment.TEST,
                    sim.now + 100.0,
                )
            )
            sim.run_until(sim.now + 1.0)
        grid.drain()
        assert grid.portal.pending_count == 0
        assert all(grid.portal.result(r).success for r in rids)

    def test_trace_records_path(self, grid, sim, specs):
        sim.run_until(1.0)
        rid = grid.portal.submit(
            grid.agents["A3"], specs["sweep3d"].model, Environment.TEST,
            sim.now + 5.0,  # impossible on A3 (32 s best), fine on A1/A2
        )
        grid.drain()
        result = grid.portal.result(rid)
        assert result.trace[0] == "A3"
        assert len(result.trace) >= 2

    def test_strict_grid_rejects_impossible(self, strict_grid, sim, specs):
        sim.run_until(1.0)
        rid = strict_grid.portal.submit(
            strict_grid.agents["A1"], specs["sweep3d"].model, Environment.TEST,
            sim.now + 0.5,  # impossible everywhere (best is 4 s)
        )
        strict_grid.drain()
        result = strict_grid.portal.result(rid)
        assert result is not None and not result.success

    def test_stats_accumulate(self, grid, sim, specs):
        grid.portal.submit(
            grid.agents["A1"], specs["closure"].model, Environment.TEST, 100.0
        )
        grid.drain()
        assert grid.agents["A1"].stats.requests_seen == 1
        assert grid.agents["A1"].stats.submitted_locally == 1
