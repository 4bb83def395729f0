"""Tests for the task model and lifecycle."""

from __future__ import annotations

import pytest

from repro.errors import TaskError, TaskStateError
from repro.tasks.task import Environment, Task, TaskRequest, TaskState
from tests.oracles import relative_deadline


class TestEnvironment:
    @pytest.mark.parametrize("text,expected", [
        ("mpi", Environment.MPI),
        ("PVM", Environment.PVM),
        (" test ", Environment.TEST),
    ])
    def test_parse(self, text, expected):
        assert Environment.parse(text) is expected

    def test_parse_unknown(self):
        with pytest.raises(TaskError):
            Environment.parse("openmp")


class TestTaskRequest:
    def test_relative_deadline(self, make_request):
        req = make_request(deadline_offset=42.0)
        assert relative_deadline(req) == 42.0

    def test_deadline_before_submit_rejected(self, specs):
        with pytest.raises(TaskError):
            TaskRequest(
                application=specs["fft"].model,
                environment=Environment.TEST,
                deadline=5.0,
                submit_time=10.0,
            )

    def test_negative_submit_rejected(self, specs):
        with pytest.raises(Exception):
            TaskRequest(
                application=specs["fft"].model,
                environment=Environment.TEST,
                deadline=5.0,
                submit_time=-1.0,
            )


class TestTaskLifecycle:
    def test_happy_path(self, make_request):
        task = Task(0, make_request())
        assert task.state is TaskState.SUBMITTED
        task.mark_queued()
        task.mark_running(1.0, (0, 1), "S1")
        assert task.state is TaskState.RUNNING
        assert task.allocated_nodes == (0, 1)
        assert task.resource_name == "S1"
        task.mark_completed(26.0)
        assert task.state is TaskState.COMPLETED
        assert task.completion_time == 26.0

    def test_advance_time(self, make_request):
        task = Task(0, make_request(deadline_offset=100.0))
        assert task.advance_time is None
        task.mark_queued()
        task.mark_running(0.0, (0,), "S1")
        task.mark_completed(30.0)
        assert task.advance_time == 70.0

    def test_run_before_queue_rejected(self, make_request):
        task = Task(0, make_request())
        with pytest.raises(TaskStateError):
            task.mark_running(0.0, (0,), "S1")

    def test_complete_before_run_rejected(self, make_request):
        task = Task(0, make_request())
        task.mark_queued()
        with pytest.raises(TaskStateError):
            task.mark_completed(1.0)

    def test_double_completion_rejected(self, make_request):
        task = Task(0, make_request())
        task.mark_queued()
        task.mark_running(0.0, (0,), "S1")
        task.mark_completed(1.0)
        with pytest.raises(TaskStateError):
            task.mark_completed(2.0)

    def test_cancel_running_allowed(self, make_request):
        # Regression: RUNNING -> CANCELLED used to be rejected, making
        # in-flight kills (workflow failure propagation) impossible.
        task = Task(0, make_request())
        task.mark_queued()
        task.mark_running(0.0, (0,), "S1")
        task.mark_cancelled()
        assert task.state is TaskState.CANCELLED
        assert task.completion_time is None

    def test_cancel_completed_rejected(self, make_request):
        task = Task(0, make_request())
        task.mark_queued()
        task.mark_running(0.0, (0,), "S1")
        task.mark_completed(1.0)
        with pytest.raises(TaskStateError):
            task.mark_cancelled()

    def test_reject_from_submitted(self, make_request):
        task = Task(0, make_request())
        task.mark_rejected()
        assert task.state is TaskState.REJECTED

    def test_empty_allocation_rejected(self, make_request):
        task = Task(0, make_request())
        task.mark_queued()
        with pytest.raises(TaskError):
            task.mark_running(0.0, (), "S1")

    def test_duplicate_allocation_rejected(self, make_request):
        task = Task(0, make_request())
        task.mark_queued()
        with pytest.raises(TaskError):
            task.mark_running(0.0, (1, 1), "S1")

    def test_completion_before_start_rejected(self, make_request):
        task = Task(0, make_request())
        task.mark_queued()
        task.mark_running(10.0, (0,), "S1")
        with pytest.raises(TaskError):
            task.mark_completed(5.0)

    def test_negative_id_rejected(self, make_request):
        with pytest.raises(TaskError):
            Task(-1, make_request())
