"""Tests for the request span builder and its CLI rendering."""

from __future__ import annotations

from repro.obs.records import (
    AckSent,
    DiscoveryEvaluated,
    ForwardGiveUp,
    ForwardRetry,
    LocalSubmit,
    PortalResult,
    PortalSubmitted,
    TaskCompleted,
    TaskDispatched,
    TaskQueued,
)
from repro.obs.spans import build_request_spans, render_span_tree
from tests.oracles import hops, local, resolved


def _forwarded_request_records():
    """Request 7: submitted via S3, forwarded to S1, executed there.

    ``sched.queue`` precedes ``agent.local`` (the scheduler emits inside
    ``Agent._submit_locally``'s call), exactly as live traces order them —
    the builder's two-pass join exists for this.
    """
    return [
        PortalSubmitted(t=0.0, request_id=7, agent="S3", application="fft",
                        deadline=30.0),
        DiscoveryEvaluated(t=0.0, agent="S3", request_id=7, hops=0,
                           decision="forward", target="S1", estimate=14.0,
                           reason="advertised service meets deadline"),
        AckSent(t=0.0, agent="S3", request_id=7, duplicate=False),
        DiscoveryEvaluated(t=0.5, agent="S1", request_id=7, hops=1,
                           decision="local", target=None, estimate=9.0,
                           reason="local service meets deadline"),
        TaskQueued(t=0.5, resource="S1", task_id=2),
        LocalSubmit(t=0.5, agent="S1", request_id=7, task_id=2),
        TaskDispatched(t=0.5, resource="S1", task_id=2, node_ids=(0, 1),
                       start=0.5, completion=9.5),
        TaskCompleted(t=9.5, resource="S1", task_id=2, completion=9.5),
        PortalResult(t=9.5, request_id=7, success=True, synthetic=False),
    ]


class TestBuildSpans:
    def test_joins_sched_records_through_agent_local(self):
        spans = build_request_spans(_forwarded_request_records())
        assert set(spans) == {7}
        span = spans[7]
        assert span.submitted.application == "fft"
        assert hops(span) == 2
        assert local(span).task_id == 2
        assert [q.resource for q in span.queued] == ["S1"]
        assert [d.completion for d in span.dispatched] == [9.5]
        assert [c.t for c in span.completed] == [9.5]
        assert resolved(span) and span.result.success

    def test_task_id_collisions_across_resources_do_not_join(self):
        """Task ids are per-queue; (resource, task_id) is the identity."""
        records = _forwarded_request_records() + [
            # A different request's task 2 on a different resource.
            PortalSubmitted(t=1.0, request_id=8, agent="S4",
                            application="memsort", deadline=40.0),
            TaskQueued(t=1.0, resource="S4", task_id=2),
            LocalSubmit(t=1.0, agent="S4", request_id=8, task_id=2),
            TaskCompleted(t=20.0, resource="S4", task_id=2, completion=20.0),
        ]
        spans = build_request_spans(records)
        assert [c.resource for c in spans[7].completed] == ["S1"]
        assert [c.resource for c in spans[8].completed] == ["S4"]

    def test_at_least_once_execution_keeps_both_runs(self):
        """A give-up absorption can run a request on two resources."""
        records = _forwarded_request_records() + [
            ForwardRetry(t=3.0, agent="S3", request_id=7, attempt=1,
                         target="S1"),
            ForwardGiveUp(t=6.0, agent="S3", request_id=7),
            TaskQueued(t=6.0, resource="S3", task_id=0),
            LocalSubmit(t=6.0, agent="S3", request_id=7, task_id=0),
            TaskCompleted(t=26.0, resource="S3", task_id=0, completion=26.0),
        ]
        span = build_request_spans(records)[7]
        assert len(span.locals) == 2
        assert [c.resource for c in span.completed] == ["S1", "S3"]
        assert len(span.forward_retries) == 1
        assert len(span.give_ups) == 1
        # .local stays the first absorption for the common-case API.
        assert local(span).agent == "S1"

    def test_orphan_sched_records_are_ignored(self):
        """sched.* rows with no agent.local owner join no span."""
        spans = build_request_spans([
            TaskQueued(t=0.0, resource="S1", task_id=99),
            TaskCompleted(t=5.0, resource="S1", task_id=99, completion=5.0),
        ])
        assert spans == {}


class TestRenderTree:
    def test_full_lifecycle_lines(self):
        span = build_request_spans(_forwarded_request_records())[7]
        lines = render_span_tree(span)
        assert lines[0].startswith("request 7  [fft]")
        text = "\n".join(lines)
        assert "discovery@S3" in text and "-> forward S1" in text
        assert "local@S1" in text
        assert "dispatch@S1" in text and "nodes=[0,1]" in text
        assert text.rstrip().endswith("result t=9.500 success")

    def test_unresolved_request_is_flagged(self):
        span = build_request_spans([
            PortalSubmitted(t=0.0, request_id=3, agent="S2",
                            application="fft", deadline=30.0),
        ])[3]
        assert not resolved(span)
        assert render_span_tree(span)[-1] == "  (no result recorded)"

    def test_synthetic_failure_is_marked(self):
        span = build_request_spans([
            PortalSubmitted(t=0.0, request_id=4, agent="S2",
                            application="fft", deadline=30.0),
            PortalResult(t=60.0, request_id=4, success=False, synthetic=True),
        ])[4]
        assert render_span_tree(span)[-1].endswith("failure (synthetic)")
