"""Schedule construction from a solution string (§2.1, Fig. 2).

A schedule assigns each task T_j a node set ρ_j and a start time τ_j "at
which the allocated nodes all begin to execute the task in unison"
(eq. 6: η_j = τ_j + t_x(ρ_j, σ_j)).  Given a solution string, node
availability times, and per-task durations, :func:`build_schedule` produces
the deterministic earliest-start schedule:

* tasks are placed in ordering-part order;
* each task starts at the latest free time among its allocated nodes;
* its completion updates those nodes' free times.

The builder also records every **idle pocket** — an interval during which a
node sat free between (or before) task executions — because the GA's cost
function penalises front-loaded idle time (§2.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import ScheduleError
from repro.scheduling.coding import SolutionString

__all__ = ["ScheduledTask", "IdlePocket", "Schedule", "build_schedule", "render_gantt"]


@dataclass(frozen=True)
class ScheduledTask:
    """One task's placement within a schedule."""

    task_id: int
    node_ids: Tuple[int, ...]
    start: float
    completion: float

    @property
    def duration(self) -> float:
        """Execution time on the allocation."""
        return self.completion - self.start


@dataclass(frozen=True)
class IdlePocket:
    """An interval ``[start, end)`` during which ``node_id`` sat idle."""

    node_id: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        """Length of the pocket."""
        return self.end - self.start


class Schedule:
    """An immutable built schedule: placements, makespan, idle pockets.

    ``ref_time`` is the instant the schedule was built for (virtual "now");
    makespan and idle weights are measured from it.
    """

    def __init__(
        self,
        entries: Sequence[ScheduledTask],
        idle_pockets: Sequence[IdlePocket],
        node_free: Mapping[int, float],
        ref_time: float,
    ) -> None:
        self._entries = tuple(entries)
        self._by_id = {e.task_id: e for e in self._entries}
        if len(self._by_id) != len(self._entries):
            raise ScheduleError("duplicate task ids in schedule")
        self._idle_pockets = tuple(idle_pockets)
        self._node_free = dict(node_free)
        self._ref_time = float(ref_time)

    @property
    def entries(self) -> Tuple[ScheduledTask, ...]:
        """Task placements in execution order."""
        return self._entries

    @property
    def idle_pockets(self) -> Tuple[IdlePocket, ...]:
        """Recorded idle pockets (leading + internal gaps)."""
        return self._idle_pockets

    @property
    def ref_time(self) -> float:
        """The instant the schedule was built for."""
        return self._ref_time

    @property
    def makespan(self) -> float:
        """Latest completion η of any task (eq. 7); ``ref_time`` if empty."""
        if not self._entries:
            return self._ref_time
        return max(e.completion for e in self._entries)

    @property
    def relative_makespan(self) -> float:
        """Makespan measured from ``ref_time``."""
        return self.makespan - self._ref_time

    def entry(self, task_id: int) -> ScheduledTask:
        """The placement of *task_id*."""
        try:
            return self._by_id[task_id]
        except KeyError:
            raise ScheduleError(f"schedule has no task {task_id}") from None

    def node_free_after(self, node_id: int) -> float:
        """When *node_id* becomes free once the schedule completes."""
        try:
            return self._node_free[node_id]
        except KeyError:
            raise ScheduleError(f"schedule covers no node {node_id}") from None

    def total_idle(self) -> float:
        """Unweighted total idle seconds across pockets."""
        return sum(p.duration for p in self._idle_pockets)

    def __len__(self) -> int:
        return len(self._entries)


def build_schedule(
    solution: SolutionString,
    node_free_times: Sequence[float],
    duration: Callable[[int, int], float],
    *,
    ref_time: float = 0.0,
    floors: "Mapping[int, float] | None" = None,
    predecessors: "Mapping[int, Sequence[int]] | None" = None,
) -> Schedule:
    """Build the earliest-start schedule for *solution*.

    Parameters
    ----------
    solution:
        The two-part encoded candidate.
    node_free_times:
        Absolute virtual time each node becomes available (index = node id).
        Values earlier than *ref_time* are clamped to it — a node cannot
        have been idle before "now" from the schedule's perspective.
    duration:
        ``duration(task_id, n_allocated) -> seconds`` — the PACE prediction
        for the task on that allocation size (homogeneous resource).
    ref_time:
        The current virtual time.
    floors:
        Optional per-task earliest start times (absolute) — workflow data
        still staging in, or a dispatched parent's booked completion.
    predecessors:
        Optional ``task_id -> predecessor task ids`` precedence map: a
        task starts no earlier than every listed predecessor's completion
        *within this schedule* (predecessors absent from the solution are
        ignored — their influence arrives as a floor instead).  Both
        default to ``None``, which is byte-identical to the independent
        builder.

    Raises
    ------
    ScheduleError
        If the solution's mask length disagrees with ``node_free_times``,
        or a duration is non-positive.
    """
    free = np.maximum(np.asarray(node_free_times, dtype=float), ref_time)
    if solution.n_tasks and solution.n_nodes != free.size:
        raise ScheduleError(
            f"solution encodes {solution.n_nodes} nodes, resource has {free.size}"
        )
    entries: List[ScheduledTask] = []
    pockets: List[IdlePocket] = []
    completions: Dict[int, float] = {}
    for task_id, mask in solution.items():
        node_ids = np.flatnonzero(mask)
        start = float(free[node_ids].max())
        if floors is not None:
            start = max(start, float(floors.get(int(task_id), start)))
        if predecessors is not None:
            for pred in predecessors.get(int(task_id), ()):
                pred_completion = completions.get(int(pred))
                if pred_completion is not None:
                    start = max(start, pred_completion)
        dur = float(duration(int(task_id), int(node_ids.size)))
        if not (dur > 0 and np.isfinite(dur)):
            raise ScheduleError(
                f"duration for task {task_id} on {node_ids.size} nodes "
                f"must be finite and > 0, got {dur}"
            )
        completion = start + dur
        for nid in node_ids:
            if start > free[nid]:
                pockets.append(IdlePocket(int(nid), float(free[nid]), start))
        free[node_ids] = completion
        completions[int(task_id)] = completion
        entries.append(
            ScheduledTask(int(task_id), tuple(int(i) for i in node_ids), start, completion)
        )
    node_free = {int(i): float(free[i]) for i in range(free.size)}
    return Schedule(entries, pockets, node_free, ref_time)


def render_gantt(
    schedule: Schedule, *, width: int = 60, n_nodes: int | None = None
) -> str:
    """ASCII Gantt chart of a schedule (the visual of Fig. 2).

    Each row is a node; task ids are printed inside their execution spans;
    ``.`` marks idle time.
    """
    if not schedule.entries:
        return "(empty schedule)"
    t0 = schedule.ref_time
    t1 = schedule.makespan
    span = max(t1 - t0, 1e-9)
    nodes: Dict[int, List[str]] = {}
    max_node = max(max(e.node_ids) for e in schedule.entries)
    count = (max_node + 1) if n_nodes is None else n_nodes
    for nid in range(count):
        nodes[nid] = ["."] * width
    for e in schedule.entries:
        a = int((e.start - t0) / span * width)
        b = max(int((e.completion - t0) / span * width), a + 1)
        label = str(e.task_id)
        for nid in e.node_ids:
            row = nodes[nid]
            for x in range(a, min(b, width)):
                row[x] = "#"
            for i, ch in enumerate(label):
                if a + i < width:
                    row[a + i] = ch
    lines = [f"P{nid:<3d} |{''.join(row)}|" for nid, row in sorted(nodes.items())]
    header = f"t = {t0:.1f} .. {t1:.1f}  (makespan {t1 - t0:.1f}s)"
    return "\n".join([header] + lines)
