"""Integration tests for dynamic background load + forecast correction."""

from __future__ import annotations

import pytest

from repro.errors import TaskError, ValidationError
from repro.scheduling.scheduler import LocalScheduler, SchedulingPolicy
from repro.sim.engine import Engine
from repro.tasks.execution import ExecutionEngine
from repro.tasks.queue import TaskQueue
from repro.tasks.task import TaskState


class TestExecutorLoadProfile:
    def test_constant_load_scales_runtime(self, sim, small_resource, evaluator, make_request):
        executor = ExecutionEngine(
            sim, small_resource, evaluator, load_profile=lambda t: 1.0
        )
        task = TaskQueue().submit(make_request("closure", deadline_offset=100.0))
        completion = executor.launch(task, (0,))
        # closure @1 node on SGI: 9 s; load 1.0 doubles it.
        assert completion == pytest.approx(18.0)

    def test_time_varying_load(self, sim, small_resource, evaluator, make_request):
        # Load 0 before t=5, load 3 after.
        executor = ExecutionEngine(
            sim, small_resource, evaluator,
            load_profile=lambda t: 0.0 if t < 5.0 else 3.0,
        )
        queue = TaskQueue()
        early = queue.submit(make_request("closure", deadline_offset=100.0))
        assert executor.launch(early, (0,)) == pytest.approx(9.0)
        sim.run_until(10.0)
        late = queue.submit(make_request("closure", deadline_offset=100.0))
        assert executor.launch(late, (1,)) == pytest.approx(10.0 + 36.0)

    def test_negative_load_rejected(self, sim, small_resource, evaluator, make_request):
        executor = ExecutionEngine(
            sim, small_resource, evaluator, load_profile=lambda t: -0.5
        )
        task = TaskQueue().submit(make_request("closure", deadline_offset=100.0))
        with pytest.raises(TaskError):
            executor.launch(task, (0,))


class TestSchedulerCorrection:
    def test_correction_inflates_estimates(self, sim, small_resource, evaluator, rng, make_request):
        scheduler = LocalScheduler(
            sim,
            small_resource,
            evaluator,
            policy=SchedulingPolicy.FIFO,
            load_profile=lambda t: 1.0,
            duration_correction=lambda: 2.0,
        )
        req = make_request("closure", deadline_offset=100.0)
        eta, _ = scheduler.expected_completion(req)
        # closure best on 4 nodes is 8 s; corrected estimate doubles it.
        assert eta == pytest.approx(16.0)

    def test_corrected_schedule_completes(self, sim, small_resource, evaluator, rng, make_request):
        scheduler = LocalScheduler(
            sim,
            small_resource,
            evaluator,
            policy=SchedulingPolicy.GA,
            rng=rng,
            generations_per_event=5,
            load_profile=lambda t: 1.0,
            duration_correction=lambda: 2.0,
        )
        tasks = [
            scheduler.submit(make_request("jacobi", deadline_offset=500.0))
            for _ in range(4)
        ]
        sim.run()
        assert all(t.state is TaskState.COMPLETED for t in tasks)
        # Actual runtimes carried the (1 + load) = 2× factor.
        for task in tasks:
            assert task.completion_time - task.start_time >= 12.0  # jacobi@4 = 25/2... scaled

    def test_bad_correction_rejected(self, sim, small_resource, evaluator, make_request):
        scheduler = LocalScheduler(
            sim,
            small_resource,
            evaluator,
            policy=SchedulingPolicy.FIFO,
            duration_correction=lambda: 0.0,
        )
        with pytest.raises(ValidationError):
            scheduler.submit(make_request("closure", deadline_offset=100.0))

    def test_monitor_forecast_as_correction(self, small_resource, evaluator, make_request, specs):
        """The intended wiring: monitor samples load, scheduler corrects."""
        from repro.tasks.task import Environment, TaskRequest

        sim = Engine()
        load = {"value": 2.0}
        scheduler = LocalScheduler(
            sim,
            small_resource,
            evaluator,
            policy=SchedulingPolicy.FIFO,
            load_profile=lambda t: load["value"],
            duration_correction=None,  # attached below, via the monitor
        )
        # Rebuild the correction loop through the public monitor API: the
        # scheduler's monitor does not sample load by default, so attach a
        # tracking monitor and use its forecast.
        from repro.scheduling.monitor import ResourceMonitor

        tracking = ResourceMonitor(
            sim, small_resource.size, poll_interval=1.0,
            load_source=lambda nid: load["value"],
        )
        tracking.start()
        scheduler._duration_correction = lambda: tracking.slowdown(0)  # noqa: SLF001
        sim.run_until(10.0)
        req = TaskRequest(
            application=specs["closure"].model,
            environment=Environment.TEST,
            deadline=sim.now + 100.0,
            submit_time=sim.now,
        )
        eta, _ = scheduler.expected_completion(req)
        # Forecast slowdown ≈ 3 on a load-2 host: estimate ≈ 8 s × 3.
        assert eta == pytest.approx(sim.now + 24.0, rel=0.1)
