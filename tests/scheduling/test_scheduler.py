"""Integration tests for the LocalScheduler service (Fig. 3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TaskError, ValidationError
from repro.scheduling.scheduler import LocalScheduler, SchedulingPolicy
from repro.tasks.task import Environment, TaskState


@pytest.fixture
def ga_scheduler(sim, small_resource, evaluator, rng):
    return LocalScheduler(
        sim,
        small_resource,
        evaluator,
        policy=SchedulingPolicy.GA,
        rng=rng,
        generations_per_event=5,
    )


@pytest.fixture
def fifo_scheduler(sim, small_resource, evaluator):
    return LocalScheduler(
        sim, small_resource, evaluator, policy=SchedulingPolicy.FIFO
    )


class TestSubmission:
    def test_ga_requires_rng(self, sim, small_resource, evaluator):
        with pytest.raises(ValidationError):
            LocalScheduler(sim, small_resource, evaluator, policy=SchedulingPolicy.GA)

    def test_unsupported_environment_rejected(
        self, sim, small_resource, evaluator, make_request, rng
    ):
        scheduler = LocalScheduler(
            sim,
            small_resource,
            evaluator,
            policy=SchedulingPolicy.GA,
            rng=rng,
            environments=(Environment.MPI,),
        )
        with pytest.raises(TaskError):
            scheduler.submit(make_request())

    def test_supports(self, ga_scheduler):
        assert ga_scheduler.supports(Environment.TEST)
        assert ga_scheduler.supports(Environment.MPI)

    @pytest.mark.parametrize("fixture", ["ga_scheduler", "fifo_scheduler"])
    def test_single_task_runs_to_completion(self, fixture, request, sim, make_request):
        scheduler = request.getfixturevalue(fixture)
        task = scheduler.submit(make_request("closure", deadline_offset=100.0))
        sim.run()
        assert task.state is TaskState.COMPLETED
        assert task.completion_time is not None
        assert task.completion_time <= 9.0 + 1e-9  # closure @>=1 node

    @pytest.mark.parametrize("fixture", ["ga_scheduler", "fifo_scheduler"])
    def test_all_tasks_complete_under_load(self, fixture, request, sim, make_request):
        scheduler = request.getfixturevalue(fixture)
        tasks = []
        for i in range(10):
            tasks.append(
                scheduler.submit(make_request("jacobi", deadline_offset=300.0))
            )
            sim.run_until(sim.now + 1.0)
        sim.run()
        assert all(t.state is TaskState.COMPLETED for t in tasks)
        assert len(scheduler.executor.completed_tasks) == 10

    def test_no_node_double_booking(self, ga_scheduler, sim, make_request):
        for _ in range(8):
            ga_scheduler.submit(make_request("improc", deadline_offset=400.0))
            sim.run_until(sim.now + 0.5)
        sim.run()
        per_node: dict[int, list] = {}
        for iv in ga_scheduler.executor.busy_intervals:
            per_node.setdefault(iv.node_id, []).append((iv.start, iv.end))
        for intervals in per_node.values():
            intervals.sort()
            for (s1, e1), (s2, _) in zip(intervals, intervals[1:]):
                assert s2 >= e1 - 1e-9


class TestFreetime:
    def test_idle_resource_freetime_is_now(self, ga_scheduler, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        assert ga_scheduler.freetime() == 5.0

    def test_freetime_reflects_booked_work(self, fifo_scheduler, sim, make_request):
        fifo_scheduler.submit(make_request("sweep3d", deadline_offset=500.0))
        assert fifo_scheduler.freetime() > 0.0

    def test_ga_freetime_covers_queue(self, ga_scheduler, sim, make_request):
        for _ in range(5):
            ga_scheduler.submit(make_request("sweep3d", deadline_offset=500.0))
        ft = ga_scheduler.freetime()
        # 5 sweep3d tasks cannot all finish instantly on 4 nodes.
        assert ft >= 25.0


class TestFreetimeModes:
    def test_mode_ordering(self, small_resource, evaluator, specs):
        """min <= mean <= makespan on a loaded scheduler."""
        from repro.sim.engine import Engine as _Engine
        from repro.tasks.task import Environment as _Env
        from repro.tasks.task import TaskRequest as _Req

        values = {}
        for mode in ("min", "mean", "makespan"):
            fresh_sim = _Engine()
            scheduler = LocalScheduler(
                fresh_sim,
                small_resource,
                evaluator,
                policy=SchedulingPolicy.GA,
                rng=np.random.default_rng(9),
                generations_per_event=5,
                freetime_mode=mode,
            )
            for _ in range(6):
                scheduler.submit(
                    _Req(
                        application=specs["sweep3d"].model,
                        environment=_Env.TEST,
                        deadline=fresh_sim.now + 500.0,
                        submit_time=fresh_sim.now,
                    )
                )
            values[mode] = scheduler.freetime()
        assert values["min"] <= values["mean"] <= values["makespan"]
        assert values["makespan"] > 0

    def test_bad_mode_rejected(self, sim, small_resource, evaluator, rng):
        with pytest.raises(ValidationError):
            LocalScheduler(
                sim,
                small_resource,
                evaluator,
                policy=SchedulingPolicy.GA,
                rng=rng,
                freetime_mode="median",
            )


class TestExpectedCompletion:
    def test_eq10_on_idle_resource(self, ga_scheduler, make_request):
        req = make_request("closure", deadline_offset=100.0)
        eta, k = ga_scheduler.expected_completion(req)
        # closure on 4 SGI nodes: min time is 8 s at k=3..4 -> k=3 by tie.
        assert eta == pytest.approx(8.0)
        assert k == 3

    def test_eq10_adds_freetime(self, fifo_scheduler, sim, make_request):
        fifo_scheduler.submit(make_request("sweep3d", deadline_offset=500.0))
        req = make_request("closure", deadline_offset=100.0)
        eta, _ = fifo_scheduler.expected_completion(req)
        assert eta == pytest.approx(fifo_scheduler.freetime() + 8.0)


class TestListeners:
    def test_result_listener(self, ga_scheduler, sim, make_request):
        done = []
        ga_scheduler.on_result(lambda t: done.append(t.task_id))
        ga_scheduler.submit(make_request("closure", deadline_offset=100.0))
        sim.run()
        assert done == [0]

    def test_service_change_fires_on_submit(self, ga_scheduler, make_request):
        events = []
        ga_scheduler.on_service_change(lambda: events.append(1))
        ga_scheduler.submit(make_request("closure", deadline_offset=100.0))
        assert events


class TestNodeFailure:
    def test_down_node_not_used(self, sim, small_resource, evaluator, rng, make_request):
        scheduler = LocalScheduler(
            sim,
            small_resource,
            evaluator,
            policy=SchedulingPolicy.GA,
            rng=rng,
            generations_per_event=5,
        )
        scheduler.monitor.mark_down(0, immediate=True)
        tasks = [
            scheduler.submit(make_request("closure", deadline_offset=200.0))
            for _ in range(3)
        ]
        sim.run()
        assert all(t.state is TaskState.COMPLETED for t in tasks)
        used = {nid for t in tasks for nid in (t.allocated_nodes or ())}
        assert 0 not in used

    def test_fifo_survives_down_node(self, sim, small_resource, evaluator, make_request):
        scheduler = LocalScheduler(
            sim, small_resource, evaluator, policy=SchedulingPolicy.FIFO
        )
        scheduler.monitor.mark_down(1, immediate=True)
        task = scheduler.submit(make_request("closure", deadline_offset=200.0))
        sim.run()
        assert task.state is TaskState.COMPLETED
        assert 1 not in (task.allocated_nodes or ())
