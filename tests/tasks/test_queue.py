"""Tests for the task-management queue."""

from __future__ import annotations

import pytest

from repro.errors import TaskError
from repro.tasks.queue import TaskQueue
from repro.tasks.task import TaskState
from tests.oracles import insert, queue_size, queued_tasks, subscribe


@pytest.fixture
def queue():
    return TaskQueue()


class TestSubmit:
    def test_ids_monotone(self, queue, make_request):
        a = queue.submit(make_request())
        b = queue.submit(make_request())
        assert (a.task_id, b.task_id) == (0, 1)

    def test_submitted_tasks_are_queued(self, queue, make_request):
        task = queue.submit(make_request())
        assert task.state is TaskState.QUEUED
        assert task.task_id in queue

    def test_arrival_order_preserved(self, queue, make_request):
        for _ in range(5):
            queue.submit(make_request())
        assert queue.peek_ids() == [0, 1, 2, 3, 4]

    def test_len_and_empty(self, queue, make_request):
        assert queue.is_empty
        queue.submit(make_request())
        assert queue_size(queue) == 1
        assert not queue.is_empty


class TestInsert:
    def test_insert_at_front(self, queue, make_request):
        queue.submit(make_request())
        insert(queue, make_request(), 0)
        assert queue.peek_ids() == [1, 0]

    def test_insert_out_of_range(self, queue, make_request):
        with pytest.raises(TaskError):
            insert(queue, make_request(), 5)


class TestRemoveCancel:
    def test_remove_keeps_state(self, queue, make_request):
        task = queue.submit(make_request())
        removed = queue.remove(task.task_id)
        assert removed is task
        assert task.state is TaskState.QUEUED  # launch transitions later
        assert queue.is_empty

    def test_remove_unknown(self, queue):
        with pytest.raises(TaskError):
            queue.remove(99)

    def test_cancel_transitions(self, queue, make_request):
        task = queue.submit(make_request())
        queue.cancel(task.task_id)
        assert task.state is TaskState.CANCELLED
        assert queue.is_empty

    def test_get(self, queue, make_request):
        task = queue.submit(make_request())
        assert queue.get(task.task_id) is task
        with pytest.raises(TaskError):
            queue.get(42)


class TestListeners:
    def test_add_remove_events(self, queue, make_request):
        events = []
        subscribe(queue, lambda op, task: events.append((op, task.task_id)))
        t = queue.submit(make_request())
        queue.remove(t.task_id)
        assert events == [("add", 0), ("remove", 0)]

    def test_iteration_snapshot_mutation_safe(self, queue, make_request):
        for _ in range(3):
            queue.submit(make_request())
        seen = []
        for task in queued_tasks(queue):
            seen.append(task.task_id)
            if task.task_id == 0:
                queue.remove(2)
        assert seen == [0, 1, 2]  # iteration is over a snapshot
