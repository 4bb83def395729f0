"""Tests for dispatch gating of workflow-bound tasks in the LocalScheduler.

A task carrying a :class:`WorkflowBinding` with a remote input must not
start before the agent clears the transfer gate via
``notify_input_arrived`` — even if nodes sit idle.  Floors raised by
``set_start_floor`` (transfer ETAs) must delay the booked start, and
cancelling a gated task must drop every piece of workflow bookkeeping.
"""

from __future__ import annotations

import pytest

from repro.errors import TaskError
from repro.obs.trace import MemorySink, Tracer
from repro.obs.records import DagReady
from repro.scheduling.scheduler import LocalScheduler, SchedulingPolicy
from repro.tasks.task import Environment, TaskRequest, TaskState, WorkflowBinding


@pytest.fixture
def make_bound_request(sim, specs):
    """Build a TaskRequest tied to a workflow node with given inputs."""

    def factory(node="b", inputs=(), app="sweep3d", deadline_offset=200.0):
        return TaskRequest(
            application=specs[app].model,
            environment=Environment.TEST,
            deadline=sim.now + deadline_offset,
            submit_time=sim.now,
            workflow=WorkflowBinding(
                workflow_id=1, node=node, inputs=tuple(inputs)
            ),
        )

    return factory


@pytest.fixture
def traced_scheduler(sim, small_resource, evaluator, rng):
    tracer = Tracer(MemorySink())
    scheduler = LocalScheduler(
        sim,
        small_resource,
        evaluator,
        policy=SchedulingPolicy.GA,
        rng=rng,
        generations_per_event=5,
        tracer=tracer,
    )
    return scheduler, tracer


class TestStaticPolicyGuard:
    def test_fifo_rejects_workflow_bound_requests(
        self, sim, small_resource, evaluator, make_bound_request
    ):
        scheduler = LocalScheduler(
            sim, small_resource, evaluator, policy=SchedulingPolicy.FIFO
        )
        with pytest.raises(TaskError, match="workflow"):
            scheduler.submit(make_bound_request())


class TestTransferGating:
    def test_remote_input_holds_the_task_until_notified(
        self, sim, traced_scheduler, make_bound_request
    ):
        scheduler, _ = traced_scheduler
        task = scheduler.submit(
            make_bound_request(inputs=[("a", "OtherCluster", 4.0)])
        )
        sim.run_until(sim.now + 50.0)
        # idle nodes, no competing work — only the gate can be holding it
        assert task.state is TaskState.QUEUED
        scheduler.notify_input_arrived(task.task_id, "a")
        sim.run()
        assert task.state is TaskState.COMPLETED
        assert task.start_time >= 50.0

    def test_gate_clears_only_when_all_inputs_arrive(
        self, sim, traced_scheduler, make_bound_request
    ):
        scheduler, _ = traced_scheduler
        task = scheduler.submit(
            make_bound_request(
                node="sink",
                inputs=[("a", "C1", 1.0), ("b", "C2", 1.0)],
            )
        )
        scheduler.notify_input_arrived(task.task_id, "a")
        sim.run_until(sim.now + 20.0)
        assert task.state is TaskState.QUEUED
        scheduler.notify_input_arrived(task.task_id, "b")
        sim.run()
        assert task.state is TaskState.COMPLETED

    def test_local_inputs_need_no_gate(
        self, sim, traced_scheduler, make_bound_request
    ):
        scheduler, _ = traced_scheduler
        # the parent "ran here": source == this resource's name
        task = scheduler.submit(
            make_bound_request(inputs=[("a", scheduler.resource.name, 2.0)])
        )
        sim.run()
        assert task.state is TaskState.COMPLETED

    def test_duplicate_and_unknown_notifications_are_noops(
        self, sim, traced_scheduler, make_bound_request
    ):
        scheduler, _ = traced_scheduler
        task = scheduler.submit(
            make_bound_request(inputs=[("a", "C1", 1.0)])
        )
        scheduler.notify_input_arrived(task.task_id, "ghost")  # unknown key
        scheduler.notify_input_arrived(9999, "a")  # unknown task
        sim.run_until(sim.now + 10.0)
        assert task.state is TaskState.QUEUED
        scheduler.notify_input_arrived(task.task_id, "a")
        scheduler.notify_input_arrived(task.task_id, "a")  # late duplicate
        sim.run()
        assert task.state is TaskState.COMPLETED


class TestDagReadyEmission:
    def _ready_records(self, tracer):
        return [r for r in tracer.records if isinstance(r, DagReady)]

    def test_ungated_submit_emits_ready_immediately(
        self, sim, traced_scheduler, make_bound_request
    ):
        scheduler, tracer = traced_scheduler
        task = scheduler.submit(make_bound_request(node="root"))
        ready = self._ready_records(tracer)
        assert len(ready) == 1
        assert ready[0].task_id == task.task_id
        assert ready[0].node == "root"
        assert ready[0].t == 0.0

    def test_gated_task_emits_ready_exactly_once_on_clear(
        self, sim, traced_scheduler, make_bound_request
    ):
        scheduler, tracer = traced_scheduler
        task = scheduler.submit(
            make_bound_request(inputs=[("a", "C1", 1.0), ("b", "C2", 1.0)])
        )
        assert self._ready_records(tracer) == []
        sim.run_until(sim.now + 5.0)
        scheduler.notify_input_arrived(task.task_id, "a")
        assert self._ready_records(tracer) == []
        scheduler.notify_input_arrived(task.task_id, "b")
        ready = self._ready_records(tracer)
        assert len(ready) == 1 and ready[0].t == 5.0
        scheduler.notify_input_arrived(task.task_id, "b")  # duplicate
        sim.run()
        assert len(self._ready_records(tracer)) == 1


class TestStartFloors:
    def test_floor_defers_the_booked_start(
        self, sim, traced_scheduler, make_bound_request, make_request
    ):
        # the agent's flow: gated submit -> transfer ETA floor -> arrival.
        # Floored entries wait for the next scheduling event, so a second
        # submission past the floor is what re-opens the dispatch window.
        scheduler, _ = traced_scheduler
        task = scheduler.submit(
            make_bound_request(inputs=[("a", "C1", 4.0)])
        )
        scheduler.set_start_floor(task.task_id, 30.0)
        scheduler.notify_input_arrived(task.task_id, "a")
        sim.run_until(10.0)
        assert task.state is TaskState.QUEUED  # gate open, floor holds
        sim.run_until(32.0)
        scheduler.submit(make_request("closure", deadline_offset=100.0))
        sim.run()
        assert task.state is TaskState.COMPLETED
        assert task.start_time >= 30.0

    def test_floor_updates_are_monotonic(
        self, sim, traced_scheduler, make_bound_request, make_request
    ):
        scheduler, _ = traced_scheduler
        task = scheduler.submit(
            make_bound_request(inputs=[("a", "C1", 4.0)])
        )
        scheduler.set_start_floor(task.task_id, 40.0)
        scheduler.set_start_floor(task.task_id, 10.0)  # lowering is ignored
        scheduler.notify_input_arrived(task.task_id, "a")
        sim.run_until(20.0)
        scheduler.submit(make_request("closure", deadline_offset=100.0))
        sim.run_until(25.0)
        # had the floor dropped to 10, the 20.0 event would have launched it
        assert task.state is TaskState.QUEUED
        sim.run_until(45.0)
        scheduler.submit(make_request("closure", deadline_offset=100.0))
        sim.run()
        assert task.start_time >= 40.0


class TestCancellation:
    def test_cancelling_a_gated_task_drops_workflow_state(
        self, sim, traced_scheduler, make_bound_request
    ):
        scheduler, tracer = traced_scheduler
        task = scheduler.submit(
            make_bound_request(inputs=[("a", "C1", 1.0)])
        )
        cancelled = scheduler.cancel_task(task.task_id)
        assert cancelled.state is TaskState.CANCELLED
        # a late transfer notification must be a harmless no-op
        scheduler.notify_input_arrived(task.task_id, "a")
        sim.run()
        assert self._no_ready(tracer)
        state = scheduler.snapshot_state()
        workflow = state.get("workflow", {})
        assert workflow.get("gate", []) == []
        assert workflow.get("floors", []) == []

    @staticmethod
    def _no_ready(tracer):
        return not any(isinstance(r, DagReady) for r in tracer.records)

    def test_node_lookup_survives_cancellation(
        self, sim, traced_scheduler, make_bound_request
    ):
        scheduler, _ = traced_scheduler
        task = scheduler.submit(make_bound_request(node="b"))
        assert scheduler.workflow_task_id(1, "b") == task.task_id
        scheduler.cancel_task(task.task_id)
        sim.run()
        # resubmission of the same node rebinds the mapping
        fresh = scheduler.submit(make_bound_request(node="b"))
        assert scheduler.workflow_task_id(1, "b") == fresh.task_id
