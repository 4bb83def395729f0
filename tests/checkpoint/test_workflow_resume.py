"""Checkpoint property: mid-workflow state resumes byte-identical.

Whole workflow runs first: an Experiment 7 stream checkpointed mid-run —
workflows started and pending, a TRANSFER in flight — must resume to the
records, metrics, RNG digest, canonical trace and per-workflow outcomes
of the uninterrupted run.

Then the scheduler alone: one snapshotted while workflow tasks are gated,
floored, and precedence-constrained must restore into a fresh scheduler
such that

* the re-snapshot equals the original snapshot byte for byte (the codec
  loses nothing — gates, floors, constraints, completion watches, node
  bindings, GA workflow keys), and
* driving the original and the restored scheduler through the same
  event script produces identical task timelines.

The flip side is pinned too: a snapshot of an independent-task scheduler
carries no ``workflow`` key at all, so pre-workflow snapshot files stay
readable and new independent-task snapshots stay byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.checkpoint.format import read_snapshot
from repro.cli import main
from repro.experiments.experiment7 import experiment7_cells
from repro.experiments.runner import (
    WorkflowStream,
    checkpoint_run,
    resume_run,
    run_experiment,
)
from repro.obs.records import canonical_lines
from repro.obs.trace import Tracer
from repro.pace.evaluation import EvaluationEngine
from repro.pace.hardware import SGI_ORIGIN_2000
from repro.pace.resource import ResourceModel
from repro.pace.workloads import paper_application_specs
from repro.scheduling.scheduler import LocalScheduler, SchedulingPolicy
from repro.sim.engine import Engine
from repro.tasks.task import Environment, TaskRequest, TaskState, WorkflowBinding
from tests.oracles import scheduler_task

SPECS = paper_application_specs()


class TestWholeRunResume:
    """Experiment 7 cells, four workflows each, seed 2003."""

    @pytest.mark.parametrize(
        "cell_name, at_step, in_flight",
        [
            # Three workflows started, one pending, a staged input in transit.
            ("fork-join-uniform", 78, "transfer"),
            # Eager: three whole graphs queued on their clusters, one pending.
            ("pipeline", 30, None),
        ],
    )
    def test_resume_is_byte_identical(
        self, cell_name, at_step, in_flight, tmp_path, capsys
    ):
        (cell,) = experiment7_cells(workflow_count=4, cells=[cell_name])
        stream = WorkflowStream(cell.workflows, cell.release_mode, aware=True)
        path = str(tmp_path / "snap.json")
        tracer_full = Tracer()
        full = run_experiment(
            cell.config, cell.topology, workload=[], workflows=stream,
            tracer=tracer_full,
        )
        assert all(outcome.succeeded for outcome in full.workflows)

        tracer_pre = Tracer()
        checkpoint_run(
            cell.config, cell.topology, workload=[], workflows=stream,
            tracer=tracer_pre, at_step=at_step, path=path,
        )
        payload = read_snapshot(path)
        assert len(payload["workflows"]["coordinator"]["runs"]) == 3
        assert len(payload["workflows"]["arrivals"]) == 1
        if in_flight is not None:
            kinds = [
                entry["message"]["kind"]
                for entry in payload["system"]["transport"]["in_flight"]
            ]
            assert in_flight in kinds
        tracer_post = Tracer()
        resumed = resume_run(path, tracer=tracer_post)

        assert [asdict(r) for r in full.records] == [
            asdict(r) for r in resumed.records
        ]
        assert json.dumps(asdict(full.metrics), sort_keys=True) == json.dumps(
            asdict(resumed.metrics), sort_keys=True
        )
        assert full.rng_digest == resumed.rng_digest
        assert full.workflows == resumed.workflows
        assert canonical_lines(tracer_full.records) == canonical_lines(
            tracer_pre.records
        ) + canonical_lines(tracer_post.records)

        capsys.readouterr()
        assert main(["resume", path]) == 0
        assert f"rng digest: {full.rng_digest}" in capsys.readouterr().out


def fresh_scheduler(seed: int = 2003):
    sim = Engine()
    scheduler = LocalScheduler(
        sim,
        ResourceModel.homogeneous("small", SGI_ORIGIN_2000, 4),
        EvaluationEngine(),
        policy=SchedulingPolicy.GA,
        rng=np.random.default_rng(seed),
        generations_per_event=5,
    )
    return sim, scheduler


def bound_request(sim, node, inputs=(), app="sweep3d"):
    return TaskRequest(
        application=SPECS[app].model,
        environment=Environment.TEST,
        deadline=sim.now + 300.0,
        submit_time=sim.now,
        workflow=WorkflowBinding(workflow_id=3, node=node, inputs=tuple(inputs)),
    )


def restore_into(sim, scheduler, sim_state, sched_state):
    # the checkpoint fabric's order: engine first, then each component
    sim.restore_state(sim_state)
    scheduler.restore_state(
        sched_state,
        applications={name: spec.model for name, spec in SPECS.items()},
    )


def submit_mid_workflow(sim, scheduler):
    """Queue a gated + floored + precedence-constrained workflow trio.

    The root is itself gated on a staged-in input so it stays QUEUED,
    which keeps the sink's dependency a live GA ordering constraint.
    """
    root = scheduler.submit(
        bound_request(sim, "root", inputs=[("ext", "C9", 1.0)])
    )
    gated = scheduler.submit(
        bound_request(sim, "stage", inputs=[("remote", "C1", 4.0)], app="jacobi")
    )
    scheduler.set_start_floor(gated.task_id, 25.0)
    child = scheduler.submit(
        bound_request(sim, "sink", inputs=[("root", "", 2.0)], app="fft")
    )
    return root, gated, child


def drive(sim, scheduler, root_id, gated_id):
    sim.schedule(10.0, lambda: scheduler.notify_input_arrived(root_id, "ext"))
    sim.schedule(30.0, lambda: scheduler.notify_input_arrived(gated_id, "remote"))
    sim.run()
    return [
        (t.task_id, t.state.name, t.start_time, t.completion_time)
        for t in sorted(scheduler.executor.completed_tasks, key=lambda t: t.task_id)
    ]


class TestMidWorkflowRoundTrip:
    def test_resnapshot_is_byte_identical(self):
        sim, scheduler = fresh_scheduler()
        submit_mid_workflow(sim, scheduler)
        engine_state = sim.snapshot_state()
        state = scheduler.snapshot_state()
        workflow = state["workflow"]
        assert workflow["gate"] and workflow["node_tasks"]
        assert state["ga"]["floors"] and "preds" in state["ga"]

        sim_b, restored = fresh_scheduler()
        restore_into(sim_b, restored, engine_state, state)
        again = restored.snapshot_state()
        assert json.dumps(again, sort_keys=True) == json.dumps(
            state, sort_keys=True
        )

    @pytest.mark.parametrize("seed", [2003, 7, 41])
    def test_restored_run_matches_uninterrupted_run(self, seed):
        sim_a, sched_a = fresh_scheduler(seed)
        root_a, gated_a, _ = submit_mid_workflow(sim_a, sched_a)
        engine_state = sim_a.snapshot_state()
        state = sched_a.snapshot_state()

        sim_b, sched_b = fresh_scheduler(seed)
        restore_into(sim_b, sched_b, engine_state, state)
        timeline_a = drive(sim_a, sched_a, root_a.task_id, gated_a.task_id)
        timeline_b = drive(sim_b, sched_b, root_a.task_id, gated_a.task_id)
        assert timeline_a == timeline_b
        assert len(timeline_a) == 3
        by_id = {tid: (start, done) for tid, _, start, done in timeline_a}
        assert by_id[gated_a.task_id][0] >= 25.0  # the floor survived

    def test_restored_gate_still_holds(self):
        sim_a, sched_a = fresh_scheduler()
        root, gated, _ = submit_mid_workflow(sim_a, sched_a)
        engine_state = sim_a.snapshot_state()
        state = sched_a.snapshot_state()

        sim_b, sched_b = fresh_scheduler()
        restore_into(sim_b, sched_b, engine_state, state)
        sim_b.run_until(50.0)
        restored_gated = scheduler_task(sched_b, gated.task_id)
        assert restored_gated.state is TaskState.QUEUED
        sched_b.notify_input_arrived(root.task_id, "ext")
        sched_b.notify_input_arrived(gated.task_id, "remote")
        sim_b.run()
        assert scheduler_task(sched_b, gated.task_id).state is TaskState.COMPLETED


class TestIndependentSnapshotsStayLean:
    def test_no_workflow_key_without_workflows(self):
        sim, scheduler = fresh_scheduler()
        scheduler.submit(
            TaskRequest(
                application=SPECS["sweep3d"].model,
                environment=Environment.TEST,
                deadline=100.0,
                submit_time=0.0,
            )
        )
        state = scheduler.snapshot_state()
        assert "workflow" not in state
        assert "floors" not in state["ga"]
        assert "preds" not in state["ga"]
        assert "priorities" not in state["ga"]
        for encoded in state["tasks"]:
            assert "workflow" not in encoded["request"]
