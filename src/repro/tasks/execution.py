"""The task-execution module (§2.2), in virtual time.

"Task execution ... is responsible for executing the program associated
with a task on a scheduled list of processors."  The paper's experiments
run in **test mode**: "tasks are not actually executed and the predictive
application execution times are scheduled and assumed to be accurate."

:class:`ExecutionEngine` reproduces that: launching a task books its
predicted duration against the allocated nodes on the simulation clock and
fires a completion callback when the virtual interval elapses.  A
positive ``runtime_noise`` perturbs the actual duration with log-normal
noise while schedules are still built from the unperturbed predictions —
the substrate for the prediction-accuracy ablation.

A resource-level **background-load profile** models competing work from
outside the grid (the dynamic behaviour the paper's static PACE resource
models ignore): a task launched while the profile reads load ℓ runs
``(1 + ℓ)×`` slower.  The NWS-substitute forecasting extension
(:mod:`repro.pace.forecast`) exists to predict exactly this effect.

Every launch appends a :class:`BusyInterval` per node; the metrics layer
integrates these into utilisation (eq. 12).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TaskError
from repro.pace.evaluation import EvaluationEngine
from repro.pace.resource import ResourceModel
from repro.sim.engine import Engine
from repro.sim.events import Event, Priority
from repro.tasks.task import Task

__all__ = ["BusyInterval", "ExecutionEngine"]


@dataclass(frozen=True)
class BusyInterval:
    """One node's occupation by one task: ``[start, end)`` on ``node_id``."""

    node_id: int
    start: float
    end: float
    task_id: int

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise TaskError(
                f"busy interval end {self.end} before start {self.start}"
            )

    @property
    def duration(self) -> float:
        """Length of the interval in seconds."""
        return self.end - self.start


class ExecutionEngine:
    """Runs tasks on a resource's nodes in virtual time.

    Parameters
    ----------
    sim:
        The discrete-event engine supplying the virtual clock.
    resource:
        The local resource whose nodes tasks run on.
    evaluator:
        PACE evaluation engine used for (true) execution durations.
    runtime_noise:
        Log-normal σ of actual-vs-predicted runtime.  Zero (the default)
        is the paper's test mode: a task runs exactly its predicted time.
    rng:
        Random generator for the noise; required when it is positive.
    """

    def __init__(
        self,
        sim: Engine,
        resource: ResourceModel,
        evaluator: EvaluationEngine,
        *,
        runtime_noise: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        load_profile: Optional[Callable[[float], float]] = None,
    ) -> None:
        if runtime_noise > 0 and rng is None:
            raise TaskError("rng is required for runtime noise")
        if runtime_noise < 0:
            raise TaskError(f"runtime_noise must be >= 0, got {runtime_noise}")
        self._sim = sim
        self._resource = resource
        self._evaluator = evaluator
        self._runtime_noise = float(runtime_noise)
        self._rng = rng
        self._load_profile = load_profile
        # node id -> virtual time it becomes free (0 = free now)
        self._node_free_at: Dict[int, float] = {n.node_id: 0.0 for n in resource.nodes}
        # The same times as one read-only vector in node order; rebuilt on
        # the next read after launch, cancel or restore_state change them.
        self._free_times: Optional[np.ndarray] = None
        self._busy_intervals: List[BusyInterval] = []
        self._running: Dict[int, Task] = {}
        self._completed: List[Task] = []
        self._completion_listeners: List[Callable[[Task], None]] = []
        # task id -> its pending complete-task event (checkpoint support).
        self._completion_handles: Dict[int, Event] = {}

    # ------------------------------------------------------------------ state

    @property
    def busy_intervals(self) -> List[BusyInterval]:
        """All booked node occupations so far (copy)."""
        return list(self._busy_intervals)

    @property
    def running_tasks(self) -> List[Task]:
        """Tasks currently executing."""
        return list(self._running.values())

    @property
    def completed_tasks(self) -> List[Task]:
        """Tasks that have completed, in completion order."""
        return list(self._completed)

    def node_free_at(self, node_id: int) -> float:
        """Virtual time node *node_id* finishes its current booking."""
        try:
            return self._node_free_at[node_id]
        except KeyError:
            raise TaskError(
                f"resource {self._resource.name!r} has no node {node_id}"
            ) from None

    @property
    def free_times(self) -> np.ndarray:
        """Every node's booked-until time, in node order (read-only).

        The vector is shared until the next booking change replaces it,
        so callers that need to edit it take a copy.
        """
        if self._free_times is None:
            free = np.array(
                [self._node_free_at[n.node_id] for n in self._resource.nodes]
            )
            free.flags.writeable = False
            self._free_times = free
        return self._free_times

    def earliest_all_free(self, node_ids: Sequence[int]) -> float:
        """Earliest time all of *node_ids* are simultaneously free."""
        if not node_ids:
            raise TaskError("node_ids must be non-empty")
        return max(self.node_free_at(nid) for nid in node_ids)

    def on_completion(self, listener: Callable[[Task], None]) -> None:
        """Register a callback fired when any task completes."""
        self._completion_listeners.append(listener)

    # ----------------------------------------------------------------- launch

    def launch(self, task: Task, node_ids: Tuple[int, ...]) -> float:
        """Start *task* now on *node_ids*; returns the completion time.

        All allocated nodes must be free at the current instant — the
        scheduler only dispatches when its schedule says the allocation is
        available ("the allocated nodes all begin to execute the task in
        unison", §2.1).
        """
        now = self._sim.now
        for nid in node_ids:
            if self.node_free_at(nid) > now:
                raise TaskError(
                    f"cannot launch task {task.task_id}: node {nid} busy until "
                    f"{self._node_free_at[nid]:.3f} (now {now:.3f})"
                )
        duration = self._duration(task, node_ids)
        completion = now + duration
        task.mark_running(now, tuple(node_ids), self._resource.name)
        self._running[task.task_id] = task
        for nid in node_ids:
            self._node_free_at[nid] = completion
            self._busy_intervals.append(
                BusyInterval(nid, now, completion, task.task_id)
            )
        self._free_times = None
        self._completion_handles[task.task_id] = self._sim.schedule(
            completion,
            lambda: self._complete(task),
            priority=Priority.COMPLETION,
            label=f"complete-task-{task.task_id}",
        )
        return completion

    def _duration(self, task: Task, node_ids: Tuple[int, ...]) -> float:
        nodes = self._resource.subset(node_ids)
        slowest = max(nodes, key=lambda n: n.platform.speed_factor).platform
        true = self._evaluator.true_time(task.application, len(nodes), slowest)
        if self._load_profile is not None:
            load = float(self._load_profile(self._sim.now))
            if load < 0:
                raise TaskError(f"load profile returned {load} at t={self._sim.now}")
            true *= 1.0 + load
        if self._runtime_noise == 0.0:
            return true
        assert self._rng is not None  # guarded in __init__
        return true * float(np.exp(self._rng.normal(0.0, self._runtime_noise)))

    def _complete(self, task: Task) -> None:
        task.mark_completed(self._sim.now)
        del self._running[task.task_id]
        self._completion_handles.pop(task.task_id, None)
        self._completed.append(task)
        for listener in self._completion_listeners:
            listener(task)

    # ----------------------------------------------------------------- cancel

    def cancel(self, task_id: int) -> Task:
        """Kill a *running* task now; its nodes free at the current instant.

        The pending completion event is cancelled, the task transitions
        ``RUNNING -> CANCELLED``, and each allocated node's booking is
        truncated to the kill time so the capacity is reusable
        immediately.  Completion listeners do **not** fire — the caller
        (workflow failure propagation, operator teardown) owns the
        follow-up accounting.
        """
        try:
            task = self._running.pop(task_id)
        except KeyError:
            raise TaskError(f"task {task_id} is not running") from None
        handle = self._completion_handles.pop(task_id, None)
        if handle is not None:
            handle.cancel()
        now = self._sim.now
        task.mark_cancelled()
        assert task.allocated_nodes is not None
        allocated = set(task.allocated_nodes)
        for nid in allocated:
            self._node_free_at[nid] = min(self._node_free_at[nid], now)
        self._free_times = None
        self._busy_intervals = [
            b
            if b.task_id != task_id
            else BusyInterval(b.node_id, b.start, min(b.end, max(b.start, now)), task_id)
            for b in self._busy_intervals
        ]
        return task

    # ------------------------------------------------------------- checkpoint

    def snapshot_state(self) -> dict:
        """Bookings, running/completed sets, and pending completion events.

        Tasks are referenced by id — the owning scheduler serialises the
        task objects once and hands the table back on restore, preserving
        the identity sharing between queue, executor, and agent maps.
        """
        return {
            "node_free_at": {
                str(nid): t for nid, t in sorted(self._node_free_at.items())
            },
            "busy_intervals": [
                [b.node_id, b.start, b.end, b.task_id] for b in self._busy_intervals
            ],
            "running": sorted(self._running),
            "completed": [t.task_id for t in self._completed],
            "completion_events": {
                str(tid): handle.descriptor()
                for tid, handle in sorted(self._completion_handles.items())
            },
        }

    def restore_state(self, state: dict, tasks: Dict[int, Task]) -> None:
        """Rebuild bookings and re-create pending completion events."""
        self._node_free_at = {
            int(nid): float(t) for nid, t in state["node_free_at"].items()
        }
        self._free_times = None
        self._busy_intervals = [
            BusyInterval(int(n), float(s), float(e), int(tid))
            for n, s, e, tid in state["busy_intervals"]
        ]
        self._running = {int(tid): tasks[int(tid)] for tid in state["running"]}
        self._completed = [tasks[int(tid)] for tid in state["completed"]]
        for handle in self._completion_handles.values():
            handle.cancel()
        self._completion_handles = {}
        for tid, descriptor in state["completion_events"].items():
            task = tasks[int(tid)]
            self._completion_handles[int(tid)] = self._sim.restore_event(
                descriptor, lambda t=task: self._complete(t)
            )
