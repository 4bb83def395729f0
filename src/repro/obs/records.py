"""Typed trace records — the schema of the observability layer.

Every record is a frozen dataclass stamped with the **virtual** time it was
emitted at (``t``) and a stable ``kind`` string.  No record carries a wall
clock, a process-global id, or an object repr, so a trace is a pure
function of ``(configuration, master seed)`` and two runs of the same
experiment produce byte-identical streams — the property the golden-trace
tier locks in (see docs/observability.md).

The records mirror the four decision layers of the system:

==================  ====================================================
kind                emitted by
==================  ====================================================
``sim.event``       :class:`~repro.sim.engine.Engine` event dispatch
``net.send``        :class:`~repro.net.transport.Transport.send`
``net.deliver``     transport delivery
``net.drop``        transport drop, with fault attribution (``reason``)
``agent.discovery`` one eq. (10)/§3.1 routing decision
``agent.local``     a request absorbed into the agent's own scheduler
``agent.ack``       an ACK sent by the resilience layer
``agent.retry``     an ack-timeout retry / reroute
``agent.give_up``   the resilience layer exhausting its retries
``agent.down``      ``Agent.deactivate`` (crash)
``agent.up``        ``Agent.reactivate`` (restart)
``auction.open``    an AuctionPolicy CFP round opening
``auction.bid``     one sealed bid arriving at the auctioneer
``auction.settle``  an auction resolving (all bids, timeout, or crash)
``resv.request``    a ReservationPolicy RESERVE going out
``resv.book``       a freetime window booked for a remote request
``resv.release``    a booked window released (consumed/declined/death/...)
``portal.submit``   one portal submission
``portal.retry``    a portal-level resubmission
``portal.result``   a result recorded at the portal
``sched.queue``     a task entering the optimisation set T
``sched.dispatch``  a task launched onto nodes (GA slot / static launch)
``sched.cost``      eq. (8) components of the dispatched best solution
``sched.complete``  a task completing execution
``ga.evolve``       one ``GAScheduler.evolve`` call (per-gen best costs)
``dag.release``     a workflow node released to the grid (parents done)
``dag.transfer``    one staged-in parent output arriving at a cluster
``dag.ready``       a gated task's inputs all present — dispatchable
==================  ====================================================

:data:`CANONICAL_FIELDS` is the golden-trace normaliser: for each kind it
whitelists the *decision* fields (dropping payload bytes, event sequence
numbers, and bulky per-generation histories) so checked-in traces stay
compact while still localising which decision diverged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import ClassVar, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "TraceRecord",
    "EventFired",
    "MessageSent",
    "MessageDelivered",
    "MessageDropped",
    "DiscoveryEvaluated",
    "LocalSubmit",
    "AckSent",
    "ForwardRetry",
    "ForwardGiveUp",
    "AgentDown",
    "AgentUp",
    "AuctionOpened",
    "AuctionBid",
    "AuctionSettled",
    "ReservationRequested",
    "ReservationBooked",
    "ReservationReleased",
    "MemberSuspected",
    "MemberAlive",
    "MemberDead",
    "AdoptRequested",
    "AdoptionCompleted",
    "PortalSubmitted",
    "PortalRetry",
    "PortalResult",
    "TaskQueued",
    "TaskDispatched",
    "CostComponents",
    "TaskCompleted",
    "EvolveStep",
    "DagRelease",
    "DagTransfer",
    "DagReady",
    "CANONICAL_FIELDS",
    "canonical_dict",
    "canonical_lines",
]


@dataclass(frozen=True)
class TraceRecord:
    """Base of every trace record: the virtual time it was emitted at."""

    kind: ClassVar[str] = "record"

    t: float


# ------------------------------------------------------------------ sim layer


@dataclass(frozen=True)
class EventFired(TraceRecord):
    """One simulation event dispatched by the engine."""

    kind: ClassVar[str] = "sim.event"

    label: str
    priority: int
    seq: int


# ------------------------------------------------------------------ net layer


@dataclass(frozen=True)
class MessageSent(TraceRecord):
    """A message accepted by the transport."""

    kind: ClassVar[str] = "net.send"

    msg: str
    sender: str
    recipient: str
    hops: int


@dataclass(frozen=True)
class MessageDelivered(TraceRecord):
    """A message handed to its endpoint handler."""

    kind: ClassVar[str] = "net.deliver"

    msg: str
    sender: str
    recipient: str
    hops: int


@dataclass(frozen=True)
class MessageDropped(TraceRecord):
    """A message lost in transit, with fault attribution.

    ``reason`` is ``"loss"`` / ``"partition"`` for fault-plan drops and
    ``"unregistered"`` when the recipient endpoint vanished in flight.
    """

    kind: ClassVar[str] = "net.drop"

    msg: str
    sender: str
    recipient: str
    hops: int
    reason: str


# ---------------------------------------------------------------- agent layer


@dataclass(frozen=True)
class DiscoveryEvaluated(TraceRecord):
    """One §3.1 discovery decision (an eq. (10) evaluation round)."""

    kind: ClassVar[str] = "agent.discovery"

    agent: str
    request_id: int
    hops: int
    decision: str
    target: Optional[str]
    estimate: float
    reason: str


@dataclass(frozen=True)
class LocalSubmit(TraceRecord):
    """A request absorbed into the receiving agent's own scheduler."""

    kind: ClassVar[str] = "agent.local"

    agent: str
    request_id: int
    task_id: int


@dataclass(frozen=True)
class AckSent(TraceRecord):
    """A resilience-layer ACK for a received REQUEST."""

    kind: ClassVar[str] = "agent.ack"

    agent: str
    request_id: int
    duplicate: bool


@dataclass(frozen=True)
class ForwardRetry(TraceRecord):
    """An unacknowledged forward re-routed after its ack timeout."""

    kind: ClassVar[str] = "agent.retry"

    agent: str
    request_id: int
    attempt: int
    target: str


@dataclass(frozen=True)
class ForwardGiveUp(TraceRecord):
    """The resilience layer exhausting retries (absorb-or-fail follows)."""

    kind: ClassVar[str] = "agent.give_up"

    agent: str
    request_id: int


@dataclass(frozen=True)
class AgentDown(TraceRecord):
    """An agent leaving the grid (crash simulation)."""

    kind: ClassVar[str] = "agent.down"

    agent: str
    endpoint: str


@dataclass(frozen=True)
class AgentUp(TraceRecord):
    """A crashed agent returning to the grid."""

    kind: ClassVar[str] = "agent.up"

    agent: str
    endpoint: str


# --------------------------------------------------------------- policy layer


@dataclass(frozen=True)
class AuctionOpened(TraceRecord):
    """An auctioneer broadcasting a CFP round for one request."""

    kind: ClassVar[str] = "auction.open"

    agent: str
    request_id: int
    hops: int
    bidders: int


@dataclass(frozen=True)
class AuctionBid(TraceRecord):
    """One sealed completion-time bid arriving at the auctioneer."""

    kind: ClassVar[str] = "auction.bid"

    agent: str
    request_id: int
    bidder: str
    eta: float
    supported: bool


@dataclass(frozen=True)
class AuctionSettled(TraceRecord):
    """An auction resolving.

    ``reason`` is ``"all-bids"`` when every bidder answered,
    ``"timeout"`` when the bid window closed first, ``"no-bidders"``
    when no CFP could go out, and ``"crash"`` when the auctioneer died
    holding the auction.  ``winner`` is ``None`` when the request is
    absorbed locally or rejected.
    """

    kind: ClassVar[str] = "auction.settle"

    agent: str
    request_id: int
    winner: Optional[str]
    estimate: float
    reason: str


@dataclass(frozen=True)
class ReservationRequested(TraceRecord):
    """A RESERVE going out to the best advertised candidate."""

    kind: ClassVar[str] = "resv.request"

    agent: str
    request_id: int
    target: str
    attempt: int


@dataclass(frozen=True)
class ReservationBooked(TraceRecord):
    """A freetime window booked for a remote booker's request."""

    kind: ClassVar[str] = "resv.book"

    agent: str
    request_id: int
    booker: str
    start: float
    end: float


@dataclass(frozen=True)
class ReservationReleased(TraceRecord):
    """A booked window released.

    ``reason`` is ``"consumed"`` (the forwarded REQUEST arrived),
    ``"declined"`` (the booker no longer wants it), ``"expired"`` (the
    window's end passed unconsumed), ``"death"`` (membership confirmed
    the booker dead), or ``"crash"`` (this agent itself went down).
    """

    kind: ClassVar[str] = "resv.release"

    agent: str
    request_id: int
    booker: str
    reason: str


# ----------------------------------------------------------- membership layer


@dataclass(frozen=True)
class MemberSuspected(TraceRecord):
    """A linked peer crossed the suspicion lease (no heartbeat)."""

    kind: ClassVar[str] = "member.suspect"

    agent: str
    peer: str
    silence: float


@dataclass(frozen=True)
class MemberAlive(TraceRecord):
    """A suspected peer heartbeated again — slow, not dead."""

    kind: ClassVar[str] = "member.alive"

    agent: str
    peer: str


@dataclass(frozen=True)
class MemberDead(TraceRecord):
    """A suspected peer crossed the confirmation threshold: link severed."""

    kind: ClassVar[str] = "member.dead"

    agent: str
    peer: str
    silence: float


@dataclass(frozen=True)
class AdoptRequested(TraceRecord):
    """An orphaned (or rejoining) agent asking a new parent to take it in."""

    kind: ClassVar[str] = "member.adopt"

    agent: str
    target: str
    attempt: int
    reason: str


@dataclass(frozen=True)
class AdoptionCompleted(TraceRecord):
    """A re-parenting handshake closing: ``child`` now hangs off ``parent``."""

    kind: ClassVar[str] = "member.adopted"

    parent: str
    child: str


# --------------------------------------------------------------- portal layer


@dataclass(frozen=True)
class PortalSubmitted(TraceRecord):
    """One request submitted through the user portal."""

    kind: ClassVar[str] = "portal.submit"

    request_id: int
    agent: str
    application: str
    deadline: float


@dataclass(frozen=True)
class PortalRetry(TraceRecord):
    """A portal-level resubmission after a missing ACK or dead entry agent."""

    kind: ClassVar[str] = "portal.retry"

    request_id: int
    attempt: int


@dataclass(frozen=True)
class PortalResult(TraceRecord):
    """A result recorded at the portal.

    ``synthetic`` marks a failure the portal manufactured after exhausting
    its own retries (no RESULT message ever arrived).
    """

    kind: ClassVar[str] = "portal.result"

    request_id: int
    success: bool
    synthetic: bool


# ------------------------------------------------------------ scheduler layer


@dataclass(frozen=True)
class TaskQueued(TraceRecord):
    """A task entering a local scheduler's optimisation set T."""

    kind: ClassVar[str] = "sched.queue"

    resource: str
    task_id: int


@dataclass(frozen=True)
class TaskDispatched(TraceRecord):
    """A task launched onto its allocated nodes."""

    kind: ClassVar[str] = "sched.dispatch"

    resource: str
    task_id: int
    node_ids: Tuple[int, ...]
    start: float
    completion: float


@dataclass(frozen=True)
class CostComponents(TraceRecord):
    """eq. (8) components of the incumbent schedule at a dispatch event."""

    kind: ClassVar[str] = "sched.cost"

    resource: str
    omega: float
    phi: float
    theta: float
    combined: float


@dataclass(frozen=True)
class TaskCompleted(TraceRecord):
    """A task completing execution on its resource."""

    kind: ClassVar[str] = "sched.complete"

    resource: str
    task_id: int
    completion: float


# ------------------------------------------------------------------- GA layer


@dataclass(frozen=True)
class EvolveStep(TraceRecord):
    """One ``GAScheduler.evolve`` call.

    ``history`` holds this call's per-generation best costs — the series
    the invariant checker proves non-increasing (elitism guarantees the
    incumbent never worsens within one call).
    """

    kind: ClassVar[str] = "ga.evolve"

    resource: str
    n_tasks: int
    generations: int
    best_cost: float
    history: Tuple[float, ...]


# ------------------------------------------------------------ workflow layer


@dataclass(frozen=True)
class DagRelease(TraceRecord):
    """A workflow node released to the grid (every parent completed)."""

    kind: ClassVar[str] = "dag.release"

    workflow: int
    node: str
    request_id: int


@dataclass(frozen=True)
class DagTransfer(TraceRecord):
    """One staged-in parent output finishing its move to a cluster.

    Emitted when the TRANSFER message delivering ``size`` units of
    ``node``'s output from ``source`` lands at ``agent``'s cluster — the
    moment the input becomes locally available.
    """

    kind: ClassVar[str] = "dag.transfer"

    agent: str
    workflow: int
    node: str
    source: str
    size: float


@dataclass(frozen=True)
class DagReady(TraceRecord):
    """A gated task's inputs are all present — it may now dispatch.

    Ungated tasks (independent tasks, workflow roots, nodes whose inputs
    were already local at submit) emit this immediately on submit, so
    every workflow task has exactly one ``dag.ready`` and the checker can
    require it to precede the dispatch.
    """

    kind: ClassVar[str] = "dag.ready"

    resource: str
    task_id: int
    workflow: int
    node: str


# ------------------------------------------------------------- serialisation

#: The golden-trace normaliser: kind → the decision fields kept in the
#: canonical stream.  Bulk kinds (``sim.event``, ``net.send``,
#: ``net.deliver``) and bulky fields (per-generation histories, event
#: sequence numbers) are dropped so checked-in traces stay compact;
#: everything kept is a decision or its direct justification.
CANONICAL_FIELDS: Mapping[str, Tuple[str, ...]] = {
    "net.drop": ("msg", "sender", "recipient", "hops", "reason"),
    "agent.discovery": (
        "agent", "request_id", "hops", "decision", "target", "estimate", "reason",
    ),
    "agent.local": ("agent", "request_id", "task_id"),
    "agent.ack": ("agent", "request_id", "duplicate"),
    "agent.retry": ("agent", "request_id", "attempt", "target"),
    "agent.give_up": ("agent", "request_id"),
    "agent.down": ("agent",),
    "agent.up": ("agent",),
    "auction.open": ("agent", "request_id", "hops", "bidders"),
    "auction.bid": ("agent", "request_id", "bidder", "eta", "supported"),
    "auction.settle": ("agent", "request_id", "winner", "estimate", "reason"),
    "resv.request": ("agent", "request_id", "target", "attempt"),
    "resv.book": ("agent", "request_id", "booker", "start", "end"),
    "resv.release": ("agent", "request_id", "booker", "reason"),
    "member.suspect": ("agent", "peer"),
    "member.alive": ("agent", "peer"),
    "member.dead": ("agent", "peer"),
    "member.adopt": ("agent", "target", "attempt", "reason"),
    "member.adopted": ("parent", "child"),
    "portal.submit": ("request_id", "agent", "application", "deadline"),
    "portal.retry": ("request_id", "attempt"),
    "portal.result": ("request_id", "success", "synthetic"),
    "sched.queue": ("resource", "task_id"),
    "sched.dispatch": ("resource", "task_id", "node_ids", "start", "completion"),
    "sched.cost": ("resource", "omega", "phi", "theta", "combined"),
    "sched.complete": ("resource", "task_id", "completion"),
    "ga.evolve": ("resource", "n_tasks", "generations", "best_cost"),
    "dag.release": ("workflow", "node", "request_id"),
    "dag.transfer": ("agent", "workflow", "node", "source", "size"),
    "dag.ready": ("resource", "task_id", "workflow", "node"),
}


def canonical_dict(record: TraceRecord) -> Optional[Dict[str, object]]:
    """The normalised dict of *record*, or ``None`` if its kind is dropped."""
    kept = CANONICAL_FIELDS.get(record.kind)
    if kept is None:
        return None
    out: Dict[str, object] = {"kind": record.kind, "t": record.t}
    for name in kept:
        value = getattr(record, name)
        if isinstance(value, tuple):
            value = list(value)
        out[name] = value
    return out


def canonical_lines(records: Sequence[TraceRecord]) -> List[str]:
    """The canonical JSONL stream of *records* — the golden-trace format.

    Deterministic by construction: sim-time stamps only, sorted keys,
    shortest-repr floats, and the :data:`CANONICAL_FIELDS` whitelist.
    """
    lines: List[str] = []
    for record in records:
        payload = canonical_dict(record)
        if payload is not None:
            lines.append(json.dumps(payload, sort_keys=True))
    return lines
