"""Per-task completion records — the raw material of the §3.3 metrics.

"The final scheduling scenario can be described using the allocation to
each task T_j (with deadline δ_j) a set of nodes P_j ⊆ P and a time domain
[τ_j, η_j] during which the allocated nodes are simultaneously utilised for
task execution."
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, List, Tuple

from repro.errors import ValidationError
from repro.tasks.task import Task, TaskState

__all__ = ["CompletionRecord", "ResilienceCounters", "records_from_tasks"]


@dataclass(frozen=True)
class CompletionRecord:
    """One completed task's scheduling outcome."""

    task_id: int
    application: str
    resource_name: str
    node_ids: Tuple[int, ...]
    start: float
    completion: float
    deadline: float
    submit_time: float = 0.0

    def __post_init__(self) -> None:
        if self.completion < self.start:
            raise ValidationError(
                f"completion {self.completion} before start {self.start}"
            )
        if not self.node_ids:
            raise ValidationError("node_ids must be non-empty")

    @property
    def advance_time(self) -> float:
        """``δ_j − η_j`` — the eq. (11) term; negative when the deadline failed."""
        return self.deadline - self.completion

    @property
    def met_deadline(self) -> bool:
        """Whether the task completed by its deadline."""
        return self.completion <= self.deadline

    @classmethod
    def from_task(cls, task: Task) -> "CompletionRecord":
        """Build a record from a completed :class:`~repro.tasks.task.Task`."""
        if task.state is not TaskState.COMPLETED:
            raise ValidationError(
                f"task {task.task_id} is {task.state.name}, not COMPLETED"
            )
        assert task.start_time is not None
        assert task.completion_time is not None
        assert task.allocated_nodes is not None
        return cls(
            task_id=task.task_id,
            application=task.application.name,
            resource_name=task.resource_name or "",
            node_ids=task.allocated_nodes,
            start=task.start_time,
            completion=task.completion_time,
            deadline=task.deadline,
            submit_time=task.request.submit_time,
        )


@dataclass(frozen=True)
class ResilienceCounters:
    """Grid-wide totals of the resilience layer's activity (Experiment 4).

    All counters stay zero in a fault-free, resilience-off run — the seed
    configurations report an all-zero instance.
    """

    acks_sent: int = 0
    acks_received: int = 0
    retries: int = 0
    reroutes: int = 0
    gave_up: int = 0
    duplicates_ignored: int = 0
    registry_expired: int = 0
    duplicate_results: int = 0
    submit_failures: int = 0
    send_failures: int = 0

    @classmethod
    def from_stats(cls, stats: Iterable[object]) -> "ResilienceCounters":
        """Sum matching counters across stats objects, duck-typed.

        Accepts any mix of ``AgentStats`` and ``PortalStats`` (or anything
        else exposing a subset of this class's integer fields); absent
        attributes contribute zero.
        """
        totals = {f.name: 0 for f in fields(cls)}
        for s in stats:
            for name in totals:
                totals[name] += int(getattr(s, name, 0))
        return cls(**totals)


def records_from_tasks(tasks: List[Task]) -> List[CompletionRecord]:
    """Records for every completed task in *tasks* (others are skipped)."""
    return [
        CompletionRecord.from_task(t)
        for t in tasks
        if t.state is TaskState.COMPLETED
    ]
