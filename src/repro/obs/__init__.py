"""Deterministic tracing, metrics, span trees, and invariant checking.

The observability layer makes the repro's *decision stream* a first-class
artifact: every discovery hop, GA evolve call, dispatch, drop, and retry
is a typed record stamped with virtual time only, so a trace is a pure
function of ``(configuration, master seed)``.  See docs/observability.md.
"""

from repro.obs.check import Violation, check_trace
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.records import (
    CANONICAL_FIELDS,
    AckSent,
    AgentDown,
    AgentUp,
    AuctionBid,
    AuctionOpened,
    AuctionSettled,
    CostComponents,
    DiscoveryEvaluated,
    EventFired,
    EvolveStep,
    ForwardGiveUp,
    ForwardRetry,
    LocalSubmit,
    MessageDelivered,
    MessageDropped,
    MessageSent,
    PortalResult,
    PortalRetry,
    PortalSubmitted,
    ReservationBooked,
    ReservationReleased,
    ReservationRequested,
    TaskCompleted,
    TaskDispatched,
    TaskQueued,
    TraceRecord,
    canonical_dict,
    canonical_lines,
)
from repro.obs.spans import RequestSpan, build_request_spans, render_span_tree
from repro.obs.trace import MemorySink, Tracer, TraceSink

__all__ = [
    "AckSent",
    "AgentDown",
    "AgentUp",
    "AuctionBid",
    "AuctionOpened",
    "AuctionSettled",
    "CANONICAL_FIELDS",
    "CostComponents",
    "Counter",
    "DiscoveryEvaluated",
    "EventFired",
    "EvolveStep",
    "ForwardGiveUp",
    "ForwardRetry",
    "LocalSubmit",
    "MemorySink",
    "MessageDelivered",
    "MessageDropped",
    "MessageSent",
    "MetricsRegistry",
    "PortalResult",
    "PortalRetry",
    "PortalSubmitted",
    "RequestSpan",
    "ReservationBooked",
    "ReservationReleased",
    "ReservationRequested",
    "TaskCompleted",
    "TaskDispatched",
    "TaskQueued",
    "TraceRecord",
    "TraceSink",
    "Tracer",
    "Violation",
    "build_request_spans",
    "canonical_dict",
    "canonical_lines",
    "check_trace",
    "render_span_tree",
]
