"""Robustness and edge-condition integration tests.

Failure injection, strict discovery, heterogeneous resources, and
execution noise — conditions the paper's deployed system
would face that the clean §4 experiments do not exercise.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.agents.discovery import DiscoveryConfig
from repro.experiments.casestudy import scaled_topology
from repro.experiments.config import table2_experiments
from repro.experiments.runner import build_grid, run_experiment
from repro.pace.hardware import SGI_ORIGIN_2000, SUN_ULTRA_10
from repro.pace.resource import Node, ResourceModel
from repro.scheduling.scheduler import LocalScheduler, SchedulingPolicy
from repro.sim.events import Priority
from repro.tasks.task import Environment, TaskState


class TestNodeFailureDuringExperiment:
    def test_all_requests_survive_a_node_crash(self):
        cfg = table2_experiments(request_count=20)[2]
        system = build_grid(cfg)
        from repro.experiments.workload import generate_workload

        items = generate_workload(
            system.topology.agent_names,
            system.specs,
            count=cfg.request_count,
            master_seed=cfg.master_seed,
        )
        system.start()
        for item in items:
            system.sim.schedule(
                item.submit_time,
                (lambda it: lambda: system.portal.submit(
                    system.agents[it.agent_name],
                    system.specs[it.application].model,
                    Environment.TEST,
                    it.deadline,
                ))(item),
                priority=Priority.ARRIVAL,
            )
        # Crash four nodes of S1 (the most attractive resource) at t = 5.
        system.sim.schedule(
            5.0,
            lambda: [
                system.schedulers["S1"].monitor.mark_down(nid, immediate=True)
                for nid in range(4)
            ],
        )
        steps = 0
        while system.portal.pending_count > 0 or system.portal.submitted_count < len(items):
            assert system.sim.step(), "queue drained with requests pending"
            steps += 1
            assert steps < 2_000_000
        system.stop()
        assert len(system.portal.successes()) == 20
        # No task may have *started* on a downed node after the crash.
        for scheduler in system.schedulers.values():
            for task in scheduler.executor.completed_tasks:
                if (
                    scheduler.resource.name == "S1"
                    and task.start_time is not None
                    and task.start_time > 5.0
                ):
                    assert not (set(task.allocated_nodes or ()) & {0, 1, 2, 3})


class TestStrictDiscoveryExperiment:
    def test_impossible_deadlines_rejected_not_hung(self):
        cfg = dataclasses.replace(
            table2_experiments(request_count=15)[2],
            name="strict",
            discovery=DiscoveryConfig(strict=True),
        )
        result = run_experiment(cfg)
        # Every request resolves: executed or rejected.
        assert result.metrics.total.n_tasks + result.rejected_count == 15


class TestHeterogeneousResource:
    def test_mixed_platform_resource_schedules(self, make_request, sim, evaluator, rng):
        resource = ResourceModel(
            "mixed",
            [Node(i, SGI_ORIGIN_2000) for i in range(2)]
            + [Node(i, SUN_ULTRA_10) for i in range(2, 4)],
        )
        scheduler = LocalScheduler(
            sim,
            resource,
            evaluator,
            policy=SchedulingPolicy.GA,
            rng=rng,
            generations_per_event=5,
        )
        tasks = [
            scheduler.submit(make_request("closure", deadline_offset=300.0))
            for _ in range(4)
        ]
        sim.run()
        assert all(t.state is TaskState.COMPLETED for t in tasks)
        # Durations are charged at the slowest platform of the resource
        # (Ultra10, factor 2): a 1-node closure takes 18 s, not 9 s.
        one_node = [t for t in tasks if len(t.allocated_nodes or ()) == 1]
        for task in one_node:
            assert task.completion_time - task.start_time == pytest.approx(18.0)


class TestRuntimeNoiseExperiment:
    def test_noisy_runtimes_complete_and_differ(self):
        base = table2_experiments(request_count=12)[1]
        noisy = dataclasses.replace(base, name="noisy", runtime_noise=0.25)
        clean_result = run_experiment(base, scaled_topology(3, nproc=4))
        noisy_result = run_experiment(noisy, scaled_topology(3, nproc=4))
        assert noisy_result.metrics.total.n_tasks == 12
        assert clean_result.metrics.total.epsilon != noisy_result.metrics.total.epsilon

    def test_fifo_relaunch_path_with_noise(self):
        """Runtime noise delays bookings; FIFO's launch re-arm must cope."""
        cfg = dataclasses.replace(
            table2_experiments(request_count=15)[0],
            name="fifo-noise",
            runtime_noise=0.3,
        )
        result = run_experiment(cfg, scaled_topology(2, nproc=4))
        assert result.metrics.total.n_tasks == 15
