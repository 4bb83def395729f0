"""Tests for the virtual-time execution engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TaskError
from repro.tasks.execution import BusyInterval, ExecutionEngine
from repro.tasks.queue import TaskQueue
from repro.tasks.task import TaskState
from tests.oracles import free_nodes


@pytest.fixture
def executor(sim, sgi_resource, evaluator):
    return ExecutionEngine(sim, sgi_resource, evaluator)


def _make_task(make_request, app="sweep3d", deadline=500.0):
    queue = TaskQueue()
    return queue.submit(make_request(app, deadline))


class TestLaunch:
    def test_books_predicted_duration(self, sim, executor, make_request):
        task = _make_task(make_request)
        completion = executor.launch(task, (0, 1, 2, 3))
        # sweep3d on 4 SGI nodes: 25 s (Table 1).
        assert completion == 25.0
        assert task.state is TaskState.RUNNING
        sim.run()
        assert task.state is TaskState.COMPLETED
        assert task.completion_time == 25.0

    def test_unison_occupation(self, sim, executor, make_request):
        task = _make_task(make_request)
        executor.launch(task, (0, 1))
        for nid in (0, 1):
            assert executor.node_free_at(nid) == 40.0  # sweep3d @2 = 40
        assert executor.node_free_at(2) == 0.0

    def test_busy_intervals_recorded(self, sim, executor, make_request):
        task = _make_task(make_request)
        executor.launch(task, (3, 5))
        intervals = executor.busy_intervals
        assert len(intervals) == 2
        assert {iv.node_id for iv in intervals} == {3, 5}
        assert all(iv.duration == 40.0 for iv in intervals)
        assert all(iv.task_id == task.task_id for iv in intervals)

    def test_busy_node_rejected(self, sim, executor, make_request):
        executor.launch(_make_task(make_request), (0,))
        with pytest.raises(TaskError):
            executor.launch(_make_task(make_request), (0,))

    def test_unknown_node_rejected(self, sim, executor, make_request):
        with pytest.raises(TaskError):
            executor.launch(_make_task(make_request), (99,))

    def test_completion_listener(self, sim, executor, make_request):
        done = []
        executor.on_completion(done.append)
        task = _make_task(make_request)
        executor.launch(task, (0,))
        sim.run()
        assert done == [task]
        assert executor.completed_tasks == [task]
        assert executor.running_tasks == []

    def test_sequential_reuse(self, sim, executor, make_request):
        t1 = _make_task(make_request, "closure")  # closure @1 = 9 s
        executor.launch(t1, (0,))
        sim.run()
        t2 = _make_task(make_request, "closure")
        completion = executor.launch(t2, (0,))
        assert completion == 18.0


class TestFreeNodes:
    def test_free_nodes_now(self, sim, executor, make_request):
        executor.launch(_make_task(make_request), (0, 1))
        free = free_nodes(executor)
        assert 0 not in free and 1 not in free
        assert len(free) == 14

    def test_earliest_all_free(self, sim, executor, make_request):
        executor.launch(_make_task(make_request), (0,))  # busy until 50
        assert executor.earliest_all_free((0, 1)) == 50.0
        assert executor.earliest_all_free((1, 2)) == 0.0

    def test_earliest_all_free_empty_rejected(self, executor):
        with pytest.raises(TaskError):
            executor.earliest_all_free(())


class TestSimulatedMode:
    def test_noise_perturbs_actual_runtime(self, sim, sgi_resource, evaluator, make_request):
        executor = ExecutionEngine(
            sim,
            sgi_resource,
            evaluator,
            runtime_noise=0.3,
            rng=np.random.default_rng(0),
        )
        task = _make_task(make_request)
        completion = executor.launch(task, (0,))
        assert completion != 50.0  # σ = 0.3: exact match ~impossible
        assert completion > 0

    def test_noise_requires_rng(self, sim, sgi_resource, evaluator):
        with pytest.raises(TaskError):
            ExecutionEngine(sim, sgi_resource, evaluator, runtime_noise=0.3)


class TestBusyInterval:
    def test_duration(self):
        assert BusyInterval(0, 1.0, 3.5, 7).duration == 2.5

    def test_backwards_rejected(self):
        with pytest.raises(TaskError):
            BusyInterval(0, 3.0, 1.0, 7)
