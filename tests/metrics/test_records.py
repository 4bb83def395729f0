"""Tests for completion records."""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.metrics.records import CompletionRecord, records_from_tasks
from repro.tasks.queue import TaskQueue
from tests.oracles import execution_time


class TestCompletionRecord:
    def test_derived_quantities(self):
        record = CompletionRecord(
            task_id=1,
            application="fft",
            resource_name="S1",
            node_ids=(0, 1),
            start=10.0,
            completion=30.0,
            deadline=40.0,
        )
        assert record.advance_time == 10.0
        assert execution_time(record) == 20.0
        assert record.met_deadline

    def test_missed_deadline(self):
        record = CompletionRecord(
            task_id=1, application="fft", resource_name="S1",
            node_ids=(0,), start=0.0, completion=50.0, deadline=40.0,
        )
        assert record.advance_time == -10.0
        assert not record.met_deadline

    def test_backwards_interval_rejected(self):
        with pytest.raises(ValidationError):
            CompletionRecord(
                task_id=1, application="fft", resource_name="S1",
                node_ids=(0,), start=5.0, completion=1.0, deadline=10.0,
            )

    def test_empty_allocation_rejected(self):
        with pytest.raises(ValidationError):
            CompletionRecord(
                task_id=1, application="fft", resource_name="S1",
                node_ids=(), start=0.0, completion=1.0, deadline=10.0,
            )


class TestFromTask:
    def test_from_completed_task(self, make_request):
        queue = TaskQueue()
        task = queue.submit(make_request("fft", deadline_offset=100.0))
        task.mark_running(1.0, (2, 3), "S5")
        task.mark_completed(25.0)
        record = CompletionRecord.from_task(task)
        assert record.task_id == task.task_id
        assert record.application == "fft"
        assert record.resource_name == "S5"
        assert record.node_ids == (2, 3)
        assert (record.start, record.completion) == (1.0, 25.0)

    def test_incomplete_task_rejected(self, make_request):
        queue = TaskQueue()
        task = queue.submit(make_request())
        with pytest.raises(ValidationError):
            CompletionRecord.from_task(task)

    def test_records_from_tasks_skips_incomplete(self, make_request):
        queue = TaskQueue()
        done = queue.submit(make_request())
        pending = queue.submit(make_request())
        done.mark_running(0.0, (0,), "S1")
        done.mark_completed(5.0)
        records = records_from_tasks([done, pending])
        assert len(records) == 1
        assert records[0].task_id == done.task_id
