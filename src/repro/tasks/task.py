"""Task and request models (eqs. 3–5).

A :class:`TaskRequest` is what a user submits through the portal (Fig. 6):
an application (binary + PACE model), an execution-environment requirement,
a deadline δ, and contact information.  A :class:`Task` is the scheduler's
stateful view of one accepted request: it carries the unique id assigned by
task management (§2.2), the allocation ρ_j and start time τ_j once
scheduled, and a validated lifecycle.

Lifecycle::

    SUBMITTED ──> QUEUED ──> RUNNING ──> COMPLETED
        │            │          │
        └────────────┴──────────┴──────> REJECTED / CANCELLED

(``RUNNING -> CANCELLED`` covers in-flight kills: a workflow ancestor
failing permanently, or an operator tearing down a churn-killed agent's
work.)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import TaskError, TaskStateError
from repro.pace.application import ApplicationModel
from repro.utils.validation import check_non_negative

__all__ = ["Environment", "TaskState", "WorkflowBinding", "TaskRequest", "Task"]


class Environment(str, enum.Enum):
    """Application execution environments supported by a local scheduler (§3.2)."""

    MPI = "mpi"
    PVM = "pvm"
    TEST = "test"

    @classmethod
    def parse(cls, text: str) -> "Environment":
        """Parse an environment name as it appears in the XML templates."""
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise TaskError(f"unknown execution environment {text!r}") from None


class TaskState(enum.Enum):
    """Lifecycle states of a :class:`Task`."""

    SUBMITTED = enum.auto()
    QUEUED = enum.auto()
    RUNNING = enum.auto()
    COMPLETED = enum.auto()
    REJECTED = enum.auto()
    CANCELLED = enum.auto()


_ALLOWED_TRANSITIONS = {
    TaskState.SUBMITTED: {TaskState.QUEUED, TaskState.REJECTED, TaskState.CANCELLED},
    TaskState.QUEUED: {TaskState.RUNNING, TaskState.CANCELLED},
    TaskState.RUNNING: {TaskState.COMPLETED, TaskState.CANCELLED},
    TaskState.COMPLETED: set(),
    TaskState.REJECTED: set(),
    TaskState.CANCELLED: set(),
}


@dataclass(frozen=True)
class WorkflowBinding:
    """Ties one :class:`TaskRequest` to a node of a task graph.

    Carried on the request so every layer (discovery, scheduling,
    dispatch gating) can see the task's workflow context without a side
    channel:

    ``workflow_id`` / ``node``
        Which graph this task belongs to and which node it realises.
    ``priority``
        The node's b-level (critical-path length to the sink, seconds).
        Precedence-aware runs stamp real b-levels; the naive baseline
        stamps 0.0 everywhere, turning every priority-keyed stable sort
        into a no-op.
    ``inputs``
        One ``(parent_node, source_resource, size)`` triple per inbound
        edge.  ``source_resource`` names the cluster holding the
        parent's output; the empty string marks a parent that is still
        in flight on the *same* cluster (eager release), where the
        dependency is enforced as a scheduler precedence constraint
        instead of a transfer.
    """

    workflow_id: int
    node: str
    priority: float = 0.0
    inputs: Tuple[Tuple[str, str, float], ...] = ()


@dataclass(frozen=True)
class TaskRequest:
    """A user's execution request (Fig. 6).

    Parameters
    ----------
    application:
        The PACE application model σ_r shipped with the request.
    environment:
        Required execution environment (mpi / pvm / test).
    deadline:
        Absolute virtual time δ_r by which execution must complete.
    submit_time:
        Virtual time the request entered the system.
    email:
        Contact address results are posted to.
    origin:
        Name of the agent the request first arrived at (for tracing
        dispatch decisions in the experiments).
    workflow:
        Optional :class:`WorkflowBinding` when this request realises a
        task-graph node; ``None`` (the default) is an ordinary
        independent task and leaves every code path byte-identical to
        the pre-workflow system.
    """

    application: ApplicationModel
    environment: Environment
    deadline: float
    submit_time: float = 0.0
    email: str = "user@example.org"
    origin: str = ""
    workflow: Optional[WorkflowBinding] = None

    def __post_init__(self) -> None:
        check_non_negative(self.submit_time, "submit_time")
        if self.deadline <= self.submit_time:
            raise TaskError(
                f"deadline {self.deadline} must be after submit time {self.submit_time}"
            )


class Task:
    """The scheduler-side record of one accepted request (T_j of eq. 3)."""

    def __init__(self, task_id: int, request: TaskRequest) -> None:
        if task_id < 0:
            raise TaskError(f"task_id must be >= 0, got {task_id}")
        self._task_id = task_id
        self._request = request
        self._state = TaskState.SUBMITTED
        self._allocated_nodes: Optional[Tuple[int, ...]] = None
        self._start_time: Optional[float] = None
        self._completion_time: Optional[float] = None
        self._resource_name: Optional[str] = None

    # ------------------------------------------------------------------ access

    @property
    def task_id(self) -> int:
        """Unique id assigned by task management."""
        return self._task_id

    @property
    def request(self) -> TaskRequest:
        """The originating user request."""
        return self._request

    @property
    def application(self) -> ApplicationModel:
        """The application model σ_j."""
        return self._request.application

    @property
    def deadline(self) -> float:
        """Absolute deadline δ_j."""
        return self._request.deadline

    @property
    def state(self) -> TaskState:
        """Current lifecycle state."""
        return self._state

    @property
    def allocated_nodes(self) -> Optional[Tuple[int, ...]]:
        """Node ids of the allocation ρ_j (set when execution starts)."""
        return self._allocated_nodes

    @property
    def start_time(self) -> Optional[float]:
        """Execution start τ_j (set when execution starts)."""
        return self._start_time

    @property
    def completion_time(self) -> Optional[float]:
        """Completion η_j (set when execution completes)."""
        return self._completion_time

    @property
    def resource_name(self) -> Optional[str]:
        """Name of the resource the task ran on (set when execution starts)."""
        return self._resource_name

    @property
    def advance_time(self) -> Optional[float]:
        """``δ_j − η_j``: positive when the deadline was met (eq. 11 term)."""
        if self._completion_time is None:
            return None
        return self._request.deadline - self._completion_time

    # -------------------------------------------------------------- lifecycle

    def _transition(self, new_state: TaskState) -> None:
        if new_state not in _ALLOWED_TRANSITIONS[self._state]:
            raise TaskStateError(
                f"task {self._task_id}: illegal transition "
                f"{self._state.name} -> {new_state.name}"
            )
        self._state = new_state

    def mark_queued(self) -> None:
        """Accept the task into a scheduler's queue."""
        self._transition(TaskState.QUEUED)

    def mark_running(
        self, start_time: float, node_ids: Tuple[int, ...], resource_name: str
    ) -> None:
        """Record execution start with its allocation."""
        if len(node_ids) == 0:
            raise TaskError(f"task {self._task_id}: allocation must be non-empty")
        if len(set(node_ids)) != len(node_ids):
            raise TaskError(f"task {self._task_id}: allocation contains duplicates")
        self._transition(TaskState.RUNNING)
        self._start_time = float(start_time)
        self._allocated_nodes = tuple(node_ids)
        self._resource_name = resource_name

    def mark_completed(self, completion_time: float) -> None:
        """Record execution completion η_j."""
        if self._state is TaskState.RUNNING:
            assert self._start_time is not None  # RUNNING implies a start time
            if completion_time < self._start_time:
                raise TaskError(
                    f"task {self._task_id}: completion {completion_time} before "
                    f"start {self._start_time}"
                )
        self._transition(TaskState.COMPLETED)
        self._completion_time = float(completion_time)

    def mark_rejected(self) -> None:
        """Reject a submitted task (strict discovery mode)."""
        self._transition(TaskState.REJECTED)

    def mark_cancelled(self) -> None:
        """Cancel a task — queued, submitted, or already running."""
        self._transition(TaskState.CANCELLED)
