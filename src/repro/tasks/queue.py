"""The task-management queue (§2.2).

"Requests are passed to the task management module where they queue for
scheduling and execution.  Each task is given a unique identification number
and awaits the attention of the GA scheduler.  Task management also
interfaces with the operations on the task queue, including adding,
deleting or inserting tasks.  The task queue is regarded by the GA
scheduling as the optimisation set of tasks T."

The queue preserves arrival order (FIFO scheduling iterates it directly)
and assigns monotonically increasing ids.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import TaskError
from repro.tasks.task import Task, TaskRequest

__all__ = ["TaskQueue"]


class TaskQueue:
    """An ordered queue of tasks awaiting scheduling — the set T of eq. (3)."""

    def __init__(self) -> None:
        self._tasks: List[Task] = []
        self._by_id: Dict[int, Task] = {}
        self._next_id = 0

    # ---------------------------------------------------------------- listing

    def __contains__(self, task_id: int) -> bool:
        return task_id in self._by_id

    @property
    def is_empty(self) -> bool:
        """Whether no tasks are queued."""
        return not self._tasks

    # ---------------------------------------------------------------- changes

    def submit(self, request: TaskRequest) -> Task:
        """Accept a request: allocate an id, enqueue, return the new task."""
        task = Task(self._next_id, request)
        self._next_id += 1
        task.mark_queued()
        self._tasks.append(task)
        self._by_id[task.task_id] = task
        return task

    def get(self, task_id: int) -> Task:
        """Look up a queued task by id."""
        try:
            return self._by_id[task_id]
        except KeyError:
            raise TaskError(f"no queued task with id {task_id}") from None

    def remove(self, task_id: int) -> Task:
        """Remove a task from the queue (it keeps its lifecycle state).

        "Once a task begins execution, it is removed from the task set T"
        (§2.2) — the execution engine calls this on dispatch; cancellation
        uses it too.
        """
        task = self.get(task_id)
        self._tasks.remove(task)
        del self._by_id[task_id]
        return task

    def cancel(self, task_id: int) -> Task:
        """Cancel and remove a queued task."""
        task = self.get(task_id)
        task.mark_cancelled()
        self._tasks.remove(task)
        del self._by_id[task_id]
        return task

    def peek_ids(self) -> List[int]:
        """Task ids in arrival order."""
        return [t.task_id for t in self._tasks]

    # ------------------------------------------------------------- checkpoint

    def snapshot_state(self) -> dict:
        """Queue order and the id counter (tasks referenced by id)."""
        return {"order": self.peek_ids(), "next_id": self._next_id}

    def restore_state(self, state: dict, tasks: Dict[int, "Task"]) -> None:
        """Rebuild the queue from the shared task table."""
        self._tasks = [tasks[int(tid)] for tid in state["order"]]
        self._by_id = {t.task_id: t for t in self._tasks}
        self._next_id = int(state["next_id"])
