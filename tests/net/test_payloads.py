"""Direct tests for the protocol payload types."""

from __future__ import annotations

import pytest

from repro.net.message import Endpoint
from repro.net.payloads import RequestEnvelope, TaskResult
from repro.tasks.task import Environment, TaskRequest
from tests.oracles import advance_time


@pytest.fixture
def envelope(specs):
    return RequestEnvelope(
        request_id=7,
        request=TaskRequest(
            application=specs["fft"].model,
            environment=Environment.TEST,
            deadline=100.0,
        ),
        reply_to=Endpoint("portal.grid", 8000),
    )


class TestRequestEnvelope:
    def test_visited_appends(self, envelope):
        walked = envelope.visited("S3").visited("S1")
        assert walked.trace == ("S3", "S1")
        assert envelope.trace == ()  # immutable

    def test_visited_preserves_identity(self, envelope):
        walked = envelope.visited("S3")
        assert walked.request_id == 7
        assert walked.reply_to == envelope.reply_to
        assert walked.request is envelope.request


class TestTaskResult:
    def test_met_deadline_requires_success(self):
        failed = TaskResult(
            request_id=1, application="fft", success=False,
            completion_time=10.0, deadline=50.0,
        )
        assert not failed.met_deadline

    def test_met_deadline_on_time(self):
        on_time = TaskResult(
            request_id=1, application="fft", success=True,
            completion_time=10.0, deadline=50.0,
        )
        assert on_time.met_deadline
        assert advance_time(on_time) == 40.0

    def test_met_deadline_late(self):
        late = TaskResult(
            request_id=1, application="fft", success=True,
            completion_time=60.0, deadline=50.0,
        )
        assert not late.met_deadline
        assert advance_time(late) == -10.0

    def test_exact_boundary_counts_as_met(self):
        edge = TaskResult(
            request_id=1, application="fft", success=True,
            completion_time=50.0, deadline=50.0,
        )
        assert edge.met_deadline
