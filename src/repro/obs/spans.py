"""Span trees — a request's full life reconstructed from its trace.

A :class:`RequestSpan` stitches together everything that happened to one
portal request: submission, the chain of §3.1 discovery decisions as it
hopped between agents, resilience-layer ACKs and retries, absorption into
a local scheduler (``agent.local`` carries the ``(agent, task_id)`` join
key — task ids are allocated per queue, so the pair is the identity),
the GA dispatch slot, execution, and the portal-recorded result.

``repro.cli trace`` renders these trees; the test suite asserts on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.records import (
    AckSent,
    DiscoveryEvaluated,
    ForwardGiveUp,
    ForwardRetry,
    LocalSubmit,
    PortalResult,
    PortalRetry,
    PortalSubmitted,
    TaskCompleted,
    TaskDispatched,
    TaskQueued,
    TraceRecord,
)

__all__ = ["RequestSpan", "build_request_spans", "render_span_tree"]


@dataclass
class RequestSpan:
    """Everything the trace recorded about one portal request."""

    request_id: int
    submitted: Optional[PortalSubmitted] = None
    discovery: List[DiscoveryEvaluated] = field(default_factory=list)
    acks: List[AckSent] = field(default_factory=list)
    forward_retries: List[ForwardRetry] = field(default_factory=list)
    give_ups: List[ForwardGiveUp] = field(default_factory=list)
    portal_retries: List[PortalRetry] = field(default_factory=list)
    # At-least-once delivery means one request can be absorbed and run by
    # more than one scheduler (e.g. a give-up absorption racing the
    # original forward), so the execution stages are lists in record order.
    locals: List[LocalSubmit] = field(default_factory=list)
    queued: List[TaskQueued] = field(default_factory=list)
    dispatched: List[TaskDispatched] = field(default_factory=list)
    completed: List[TaskCompleted] = field(default_factory=list)
    result: Optional[PortalResult] = None


def build_request_spans(
    records: Sequence[TraceRecord],
) -> Dict[int, RequestSpan]:
    """Group *records* into per-request spans, keyed by ``request_id``.

    Two passes: the first collects the ``agent.local`` join keys (the
    ``sched.*`` records only carry ``(resource, task_id)``, and a task's
    ``sched.queue`` is emitted *before* the ``agent.local`` that names its
    request), the second assembles each span in record order.
    """
    spans: Dict[int, RequestSpan] = {}
    task_owner: Dict[Tuple[str, int], int] = {}

    def span(request_id: int) -> RequestSpan:
        existing = spans.get(request_id)
        if existing is None:
            existing = spans[request_id] = RequestSpan(request_id)
        return existing

    for record in records:
        if isinstance(record, LocalSubmit):
            task_owner[(record.agent, record.task_id)] = record.request_id

    for record in records:
        if isinstance(record, PortalSubmitted):
            target = span(record.request_id)
            if target.submitted is None:
                target.submitted = record
        elif isinstance(record, DiscoveryEvaluated):
            span(record.request_id).discovery.append(record)
        elif isinstance(record, AckSent):
            span(record.request_id).acks.append(record)
        elif isinstance(record, ForwardRetry):
            span(record.request_id).forward_retries.append(record)
        elif isinstance(record, ForwardGiveUp):
            span(record.request_id).give_ups.append(record)
        elif isinstance(record, PortalRetry):
            span(record.request_id).portal_retries.append(record)
        elif isinstance(record, LocalSubmit):
            span(record.request_id).locals.append(record)
        elif isinstance(record, (TaskQueued, TaskDispatched, TaskCompleted)):
            request_id = task_owner.get((record.resource, record.task_id))
            if request_id is None:
                continue
            target = span(request_id)
            if isinstance(record, TaskQueued):
                target.queued.append(record)
            elif isinstance(record, TaskDispatched):
                target.dispatched.append(record)
            else:
                target.completed.append(record)
        elif isinstance(record, PortalResult):
            span(record.request_id).result = record

    return spans


def _fmt(value: float) -> str:
    return f"{value:.3f}"


def render_span_tree(span: RequestSpan) -> List[str]:
    """Render one span as indented text lines for the CLI."""
    lines: List[str] = []
    head = f"request {span.request_id}"
    if span.submitted is not None:
        head += (
            f"  [{span.submitted.application}]"
            f"  t={_fmt(span.submitted.t)}"
            f"  deadline={_fmt(span.submitted.deadline)}"
            f"  via {span.submitted.agent}"
        )
    lines.append(head)
    for hop in span.discovery:
        target = hop.target if hop.target is not None else "-"
        lines.append(
            f"  discovery@{hop.agent} t={_fmt(hop.t)} hops={hop.hops}"
            f" -> {hop.decision} {target}"
            f" (estimate={_fmt(hop.estimate)}, {hop.reason})"
        )
    for ack in span.acks:
        dup = " duplicate" if ack.duplicate else ""
        lines.append(f"  ack@{ack.agent} t={_fmt(ack.t)}{dup}")
    for retry in span.forward_retries:
        lines.append(
            f"  retry@{retry.agent} t={_fmt(retry.t)}"
            f" attempt={retry.attempt} -> {retry.target}"
        )
    for give_up in span.give_ups:
        lines.append(f"  give-up@{give_up.agent} t={_fmt(give_up.t)}")
    for retry in span.portal_retries:
        lines.append(f"  portal-retry t={_fmt(retry.t)} attempt={retry.attempt}")
    for local in span.locals:
        lines.append(
            f"  local@{local.agent} t={_fmt(local.t)}"
            f" task={local.task_id}"
        )
    for queued in span.queued:
        lines.append(
            f"  queued@{queued.resource} t={_fmt(queued.t)}"
        )
    for dispatched in span.dispatched:
        nodes = ",".join(str(n) for n in dispatched.node_ids)
        lines.append(
            f"  dispatch@{dispatched.resource}"
            f" t={_fmt(dispatched.t)} nodes=[{nodes}]"
            f" start={_fmt(dispatched.start)}"
            f" completion={_fmt(dispatched.completion)}"
        )
    for completed in span.completed:
        lines.append(
            f"  complete@{completed.resource}"
            f" t={_fmt(completed.t)}"
        )
    if span.result is not None:
        verdict = "success" if span.result.success else "failure"
        if span.result.synthetic:
            verdict += " (synthetic)"
        lines.append(f"  result t={_fmt(span.result.t)} {verdict}")
    else:
        lines.append("  (no result recorded)")
    return lines
