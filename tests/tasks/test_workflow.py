"""Tests for the workflow coordinator: release modes, failure, checkpoint.

Unit tests run against a fake portal (release bookkeeping and failure
propagation are pure coordinator logic); integration tests drive real
grids built by :func:`~repro.experiments.runner.build_grid`.
"""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_grid
from repro.net.payloads import TaskResult
from repro.scheduling.scheduler import SchedulingPolicy
from repro.tasks.graph import TaskGraph, fork_join
from repro.tasks.task import TaskState
from repro.tasks.workflow import WorkflowCoordinator
from tests.oracles import scheduler_task

APPS = ["sweep3d", "fft", "improc", "closure", "jacobi", "memsort"]


class FakeSim:
    def __init__(self):
        self.now = 0.0


class FakePortal:
    """Just enough portal surface for the coordinator's bookkeeping."""

    def __init__(self):
        self._sim = FakeSim()
        self._listeners = []
        self._results = {}
        self._next_id = 0
        self.submissions = []  # (request_id, application, deadline, binding)

    def add_result_listener(self, listener):
        self._listeners.append(listener)

    def submit(self, target, application, environment, deadline, *, workflow=None):
        request_id = self._next_id
        self._next_id += 1
        self.submissions.append((request_id, application, deadline, workflow))
        return request_id

    def result(self, request_id):
        return self._results.get(request_id)

    def _failure_result(self, request_id):
        return TaskResult(request_id=request_id, application="", success=False)

    def _record_result(self, result, *, synthetic=False):
        self._results[result.request_id] = result
        for listener in self._listeners:
            listener(result)

    def complete(self, request_id, resource="R1", completion=10.0):
        self._record_result(
            TaskResult(
                request_id=request_id,
                application="",
                success=True,
                resource_name=resource,
                completion_time=completion,
            )
        )

    def fail(self, request_id):
        self._record_result(self._failure_result(request_id))


def chain() -> TaskGraph:
    return TaskGraph(
        {"a": "sweep3d", "b": "jacobi", "c": "fft"},
        [("a", "b", 2.0), ("b", "c", 3.0)],
    )


def apps_map():
    return {name: object() for name in APPS}


class TestStagedRelease:
    def test_roots_only_then_children_on_completion(self):
        portal = FakePortal()
        coord = WorkflowCoordinator(portal, apps_map())
        wf = coord.start_workflow(chain(), object(), 100.0)
        run = coord.run(wf)
        assert set(run.released) == {"a"}
        portal.complete(run.released["a"], resource="R7")
        assert set(run.released) == {"a", "b"}
        # b's binding carries a's actual resource as the input source
        _, _, _, binding = portal.submissions[-1]
        assert binding.inputs == (("a", "R7", 2.0),)
        portal.complete(run.released["b"], resource="R2", completion=20.0)
        portal.complete(run.released["c"], completion=30.0)
        assert run.resolved and run.succeeded
        assert run.completion_time(portal._results) == 30.0

    def test_awareness_metadata_is_stamped(self):
        portal = FakePortal()
        coord = WorkflowCoordinator(portal, apps_map())
        wf = coord.start_workflow(
            chain(), object(), 100.0, durations={"a": 2.0, "b": 3.0, "c": 5.0}
        )
        run = coord.run(wf)
        assert run.priorities == {"a": 10.0, "b": 8.0, "c": 5.0}
        # deadline - (b_level - own duration): the slack left for descendants
        assert run.node_deadlines == {"a": 92.0, "b": 95.0, "c": 100.0}

    def test_naive_metadata_is_flat(self):
        portal = FakePortal()
        coord = WorkflowCoordinator(portal, apps_map())
        run = coord.run(coord.start_workflow(chain(), object(), 100.0))
        assert set(run.priorities.values()) == {0.0}
        assert set(run.node_deadlines.values()) == {100.0}

    def test_late_release_clamps_deadline_after_submit_time(self):
        portal = FakePortal()
        coord = WorkflowCoordinator(portal, apps_map())
        run = coord.run(
            coord.start_workflow(
                chain(), object(), 5.0, durations={"a": 2.0, "b": 3.0, "c": 5.0}
            )
        )
        portal._sim.now = 50.0  # a finished far past the whole-graph deadline
        portal.complete(run.released["a"])
        _, _, deadline, _ = portal.submissions[-1]
        assert deadline > 50.0  # clamped, not the stale node deadline 0.0


class TestFailurePropagation:
    def test_staged_failure_starves_descendants_unsubmitted(self):
        portal = FakePortal()
        coord = WorkflowCoordinator(portal, apps_map())
        graph = fork_join(APPS, width=2, output_size=1.0)
        run = coord.run(coord.start_workflow(graph, object(), 100.0))
        portal.complete(run.released["source"])
        portal.fail(run.released["branch0"])
        assert run.failed == {"branch0", "sink"}
        assert "sink" not in run.released  # never submitted
        portal.complete(run.released["branch1"])
        assert run.resolved and not run.succeeded

    def test_eager_failure_resolves_released_descendants(self):
        portal = FakePortal()
        coord = WorkflowCoordinator(portal, apps_map())
        target = object()  # no scheduler attribute: nothing to cancel
        run = coord.run(
            coord.start_workflow(chain(), target, 100.0, mode="eager")
        )
        assert set(run.released) == {"a", "b", "c"}
        portal.fail(run.released["a"])
        assert run.failed == {"a", "b", "c"}
        # synthetic failures recorded so the run terminates
        assert portal.result(run.released["b"]).success is False
        assert portal.result(run.released["c"]).success is False
        assert run.resolved

    def test_duplicate_results_are_ignored(self):
        portal = FakePortal()
        coord = WorkflowCoordinator(portal, apps_map())
        run = coord.run(coord.start_workflow(chain(), object(), 100.0))
        portal.complete(run.released["a"], resource="R1")
        portal.complete(run.released["a"], resource="R9")  # late duplicate
        assert run.sources["a"] == "R1"
        assert len(run.released) == 2  # b released once, not twice


class TestModeValidation:
    def test_unknown_mode_rejected(self):
        coord = WorkflowCoordinator(FakePortal(), apps_map())
        with pytest.raises(ValidationError, match="unknown workflow mode"):
            coord.start_workflow(chain(), object(), 10.0, mode="wild")

    def test_unknown_application_rejected(self):
        coord = WorkflowCoordinator(FakePortal(), {"sweep3d": object()})
        with pytest.raises(ValidationError, match="unknown application"):
            coord.start_workflow(chain(), object(), 10.0)

    def test_eager_requires_local_only_target(self):
        system = build_grid(
            ExperimentConfig(
                name="wf-eager-guard",
                policy=SchedulingPolicy.GA,
                agents_enabled=True,
                request_count=1,
            )
        )
        coord = WorkflowCoordinator(
            system.portal,
            {name: spec.model for name, spec in system.specs.items()},
        )
        with pytest.raises(ValidationError, match="local_only"):
            coord.start_workflow(
                chain(), system.agents["S1"], 100.0, mode="eager"
            )


def _drive(system, coordinator, limit=200_000):
    steps = 0
    while not coordinator.all_resolved or system.portal.pending_count > 0:
        assert system.sim.step(), "event queue drained early"
        steps += 1
        assert steps < limit


class TestGridIntegration:
    def test_staged_fork_join_completes_on_the_case_study_grid(self):
        system = build_grid(
            ExperimentConfig(
                name="wf-staged",
                policy=SchedulingPolicy.GA,
                agents_enabled=True,
                request_count=1,
            )
        )
        coord = WorkflowCoordinator(
            system.portal,
            {name: spec.model for name, spec in system.specs.items()},
        )
        system.start()
        wf = coord.start_workflow(
            fork_join(APPS, width=4, output_size=2.0),
            system.agents["S1"],
            600.0,
        )
        _drive(system, coord)
        system.stop()
        run = coord.run(wf)
        assert run.succeeded
        assert run.completion_time(system.portal.results) is not None

    def test_eager_graph_respects_precedence_locally(self):
        system = build_grid(
            ExperimentConfig(
                name="wf-eager",
                policy=SchedulingPolicy.GA,
                agents_enabled=False,
                request_count=1,
            )
        )
        coord = WorkflowCoordinator(
            system.portal,
            {name: spec.model for name, spec in system.specs.items()},
        )
        system.start()
        wf = coord.start_workflow(
            chain(), system.agents["S1"], 600.0, mode="eager"
        )
        _drive(system, coord)
        system.stop()
        run = coord.run(wf)
        assert run.succeeded
        scheduler = system.agents["S1"].scheduler
        done = {
            task.task_id: task
            for task in scheduler.executor.completed_tasks
        }
        times = {
            node: done[scheduler.workflow_task_id(wf, node)]
            for node in ("a", "b", "c")
        }
        assert times["a"].completion_time <= times["b"].start_time
        assert times["b"].completion_time <= times["c"].start_time

    def test_eager_failure_cancels_queued_descendants_on_the_grid(self):
        """A failed root cancels its released children in the real scheduler."""
        system = build_grid(
            ExperimentConfig(
                name="wf-eager-failure",
                policy=SchedulingPolicy.GA,
                agents_enabled=False,
                request_count=1,
            )
        )
        coord = WorkflowCoordinator(
            system.portal,
            {name: spec.model for name, spec in system.specs.items()},
        )
        system.start()
        wf = coord.start_workflow(
            chain(), system.agents["S1"], 600.0, mode="eager"
        )
        run = coord.run(wf)
        scheduler = system.agents["S1"].scheduler
        while scheduler.workflow_task_id(wf, "c") is None:
            assert system.sim.step(), "the REQUESTs were never accepted"
        b = scheduler_task(scheduler, scheduler.workflow_task_id(wf, "b"))
        c = scheduler_task(scheduler, scheduler.workflow_task_id(wf, "c"))
        assert b.state is TaskState.QUEUED and c.state is TaskState.QUEUED
        portal = system.portal
        portal._record_result(portal._failure_result(run.released["a"]))
        assert run.failed == {"a", "b", "c"} and run.resolved
        assert b.state is TaskState.CANCELLED
        assert c.state is TaskState.CANCELLED
        assert b.task_id not in scheduler.queue
        assert c.task_id not in scheduler.queue
        _drive(system, coord)
        system.stop()
        assert not portal.result(run.released["b"]).success
        assert not portal.result(run.released["c"]).success


class TestCheckpoint:
    def test_snapshot_restore_round_trip_mid_flight(self):
        portal = FakePortal()
        coord = WorkflowCoordinator(portal, apps_map())
        graph = fork_join(APPS, width=2, output_size=1.0)
        run = coord.run(
            coord.start_workflow(
                graph,
                type("T", (), {"name": "S1"})(),
                90.0,
                durations={n: 2.0 for n in graph.node_names},
            )
        )
        portal.complete(run.released["source"], resource="R3")
        before = coord.snapshot_state()

        restored = WorkflowCoordinator(FakePortal(), apps_map())
        restored.restore_state(
            before, targets={"S1": type("T", (), {"name": "S1"})()}
        )
        assert restored.snapshot_state() == before
        rerun = restored.run(run.workflow_id)
        assert rerun.sources == {"source": "R3"}
        assert set(rerun.released) == {"source", "branch0", "branch1"}
        assert rerun.priorities == run.priorities
