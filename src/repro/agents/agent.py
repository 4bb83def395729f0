"""The grid agent (§3) — one homogeneous agent per local grid resource.

"Each agent provides a high-level representation of each local scheduler
and therefore characterises these local resources as high performance
computing service providers in the wider grid environment."  Agents are
*homogeneous*: every agent runs the same code and "can be reconfigured with
different roles at run time" — an agent's place in the hierarchy (head,
middle, leaf) is just its parent/children wiring.

An agent:

* fronts exactly one :class:`~repro.scheduling.scheduler.LocalScheduler`;
* keeps a registry of neighbours' advertised :class:`ServiceInfo`
  (refreshed by its advertisement strategy);
* answers PULL messages with its own fresh service information;
* routes REQUEST messages via the discovery procedure — own service first,
  then the best advertised neighbour match, then escalation (§3.1);
* returns RESULT messages to the submitting portal when execution
  completes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import chain
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.agents.advertisement import AdvertisementStrategy, NoAdvertisement
from repro.agents.discovery import DiscoveryConfig
from repro.agents.matchmaking import MatchResult, match_request
from repro.agents.membership import FailureDetector, MembershipConfig
from repro.agents.policy import GlobalPolicy, GlobalPolicyConfig, make_policy
from repro.agents.resilience import MAX_RETRIES, ResilienceConfig, timeout_for
from repro.errors import AgentError, TransportError
from repro.net import message as _wire
from repro.net.message import Endpoint, Message, MessageKind
from repro.net.payloads import (
    KinInfo,
    RequestEnvelope,
    ServiceInfo,
    TaskResult,
    TransferPayload,
)
from repro.net.transport import Transport
from repro.pace.hardware import DEFAULT_CATALOGUE, HardwareCatalogue
from repro.scheduling.scheduler import LocalScheduler
from repro.sim.events import Event, Priority
from repro.tasks.task import Task, TaskRequest

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.agents.healing import Healer
    from repro.obs.trace import Tracer

__all__ = ["Agent"]

#: Data units per second a workflow input stages in at: moving an input of
#: size *s* between clusters delays its consumer by ``s / TRANSFER_BANDWIDTH``.
TRANSFER_BANDWIDTH = 1.0
#: Retransmission-dedup keys an agent remembers; the least-recently-seen
#: are evicted first, which bounds memory over soak horizons while staying
#: far above any plausible in-flight retransmission window.
DEDUP_CAP = 65536

# Message kinds as module globals: ``_handle_message`` tests the kind of
# every delivered message, and reading a member off the enum class costs
# a Python-level lookup each time.
_PULL = MessageKind.PULL
_ADVERTISE = MessageKind.ADVERTISE
_REQUEST = MessageKind.REQUEST
_ACK = MessageKind.ACK
_TRANSFER = MessageKind.TRANSFER
_HEARTBEAT = MessageKind.HEARTBEAT
_ADOPT = MessageKind.ADOPT
_ADOPTED = MessageKind.ADOPTED

# PULL and ADVERTISE, nearly every message at scale, are built as
# ``_tuple_new(Message, (kind, sender, recipient, payload, 0, id))``:
# exactly what ``Message(...)`` returns, without its Python frame.  The id
# is ``next(_wire._message_ids)``, read through the module at every call
# because a checkpoint restore re-seats that counter.
_tuple_new = tuple.__new__


@dataclass
class AgentStats:
    """Counters for one agent's routing activity."""

    requests_seen: int = 0
    submitted_locally: int = 0
    forwarded: int = 0
    escalated: int = 0
    rejected: int = 0
    pulls_answered: int = 0
    advertisements_received: int = 0
    send_failures: int = 0
    # Resilience-layer counters (all zero with the layer disabled).
    acks_sent: int = 0
    acks_received: int = 0
    retries: int = 0
    reroutes: int = 0
    gave_up: int = 0
    duplicates_ignored: int = 0
    registry_expired: int = 0


@dataclass
class _PendingForward:
    """One unacknowledged forwarded REQUEST awaiting its ACK."""

    envelope: RequestEnvelope
    hops: int
    target: Endpoint
    attempt: int
    tried: FrozenSet[Endpoint]
    handle: Event


class Agent:
    """One grid agent fronting one local scheduler.

    Parameters
    ----------
    name:
        Agent name (``"S1"`` ... in the case study).
    endpoint:
        The agent's (address, port) identity.
    scheduler:
        The local scheduler this agent represents.
    transport:
        Message transport shared by the grid.
    catalogue:
        Hardware catalogue for interpreting advertised hardware types.
    discovery_config:
        Discovery policy knobs.
    advertisement:
        Advertisement strategy; default :class:`NoAdvertisement` (the
        experiments install :class:`PeriodicPullStrategy` explicitly).
    """

    def __init__(
        self,
        name: str,
        endpoint: Endpoint,
        scheduler: LocalScheduler,
        transport: Transport,
        *,
        catalogue: HardwareCatalogue = DEFAULT_CATALOGUE,
        discovery_config: DiscoveryConfig = DiscoveryConfig(),
        advertisement: Optional[AdvertisementStrategy] = None,
        resilience: ResilienceConfig = ResilienceConfig(),
        membership: MembershipConfig = MembershipConfig(),
        global_policy: GlobalPolicyConfig = GlobalPolicyConfig(),
        tracer: Optional[Tracer] = None,
    ) -> None:
        if not name:
            raise AgentError("agent name must be non-empty")
        self._name = name
        self._tracer = tracer
        self._endpoint = endpoint
        self._scheduler = scheduler
        self._sim = scheduler.sim
        # The Fig. 5 record minus its freetime: fixed for the agent's life.
        self._static_info = ServiceInfo(
            agent_endpoint=endpoint,
            scheduler_endpoint=Endpoint(endpoint.address, endpoint.port + 9000),
            hardware_type=scheduler.resource.slowest_platform().name,
            nproc=scheduler.resource.size,
            environments=scheduler.environments,
            freetime=0.0,
        )
        # The last record service_info() returned: records are immutable,
        # so it is handed out again while the freetime has not moved.
        self._info = self._static_info
        self._transport = transport
        self._catalogue = catalogue
        self._discovery_config = discovery_config
        self._resilience = resilience
        self._advertisement = advertisement or NoAdvertisement()
        self._parent: Optional["Agent"] = None
        self._children: List["Agent"] = []
        self._registry: Dict[Endpoint, ServiceInfo] = {}
        self._registry_time: Dict[Endpoint, float] = {}
        self._reply_to: Dict[int, RequestEnvelope] = {}  # task id -> envelope
        # Results completed by the local scheduler while this agent is
        # crashed, awaiting a restart to be mailed (membership mode only).
        self._held_results: List[Tuple[RequestEnvelope, TaskResult]] = []
        self._stats = AgentStats()
        # request id -> unacknowledged forward (resilience layer).
        self._pending_acks: Dict[int, _PendingForward] = {}
        # (sender, request id, hops) triples already processed — dedups the
        # retransmissions an at-least-once sender produces when its ACK,
        # not the REQUEST itself, was lost.  Only populated when enabled.
        # Keyed in recency order (values are last-seen times) so the
        # DEDUP_CAP eviction drops the least-recently-seen keys first.
        self._seen_forwards: Dict[Tuple[Endpoint, int, int], float] = {}
        self._membership = membership
        self._detector: Optional[FailureDetector] = None
        self._healer: Optional[Healer] = None
        if membership.enabled:
            from repro.agents.healing import Healer

            self._detector = FailureDetector(self)
            self._healer = Healer(self, membership)
        # Endpoint → agent directory (set by wire_hierarchy): the sim's
        # stand-in for dialling an arbitrary address, which adoption needs
        # to reach beyond the current neighbour links.
        self._directory: Optional[Mapping[Endpoint, "Agent"]] = None
        self._active = True
        # The global balancing strategy: routing entries delegate here.
        self._policy: GlobalPolicy = make_policy(global_policy, self)
        transport.register(endpoint, self._handle_message)
        scheduler.on_result(self._handle_local_completion)

    # ------------------------------------------------------------------ state

    @property
    def name(self) -> str:
        """The agent's name."""
        return self._name

    @property
    def endpoint(self) -> Endpoint:
        """The agent's transport identity."""
        return self._endpoint

    @property
    def scheduler(self) -> LocalScheduler:
        """The fronted local scheduler."""
        return self._scheduler

    @property
    def sim(self):
        """The shared discrete-event engine."""
        return self._sim

    @property
    def parent(self) -> Optional["Agent"]:
        """The upper agent, or ``None`` at the hierarchy head."""
        return self._parent

    @property
    def children(self) -> List["Agent"]:
        """Lower agents (copy)."""
        return list(self._children)

    @property
    def stats(self) -> AgentStats:
        """Routing counters."""
        return self._stats

    @property
    def active(self) -> bool:
        """Whether the agent is on the grid (not crashed)."""
        return self._active

    @property
    def detector(self) -> Optional[FailureDetector]:
        """The failure detector, or ``None`` with membership disabled."""
        return self._detector

    @property
    def healer(self) -> Optional[Healer]:
        """The self-healing protocol driver, or ``None`` when disabled."""
        return self._healer

    @property
    def tracer(self) -> Optional[Tracer]:
        """The trace sink this agent emits to (``None`` when off)."""
        return self._tracer

    def neighbours(self) -> List["Agent"]:
        """Upper and lower agents — the only agents this one is aware of."""
        result = list(self._children)
        if self._parent is not None:
            result.append(self._parent)
        return result

    def _peer_name(self, endpoint: Optional[Endpoint]) -> Optional[str]:
        """A neighbour's agent name for trace records (endpoint otherwise)."""
        if endpoint is None:
            return None
        for neighbour in self.neighbours():
            if neighbour.endpoint == endpoint:
                return neighbour.name
        if self._directory is not None:
            known = self._directory.get(endpoint)
            if known is not None:
                return known.name
        return str(endpoint)

    def peer_name(self, endpoint: Optional[Endpoint]) -> Optional[str]:
        """Public alias of the trace-record name resolver."""
        return self._peer_name(endpoint)

    # --------------------------------------------------------------- topology

    def _set_parent(self, parent: Optional["Agent"]) -> None:
        self._parent = parent

    def _add_child(self, child: "Agent") -> None:
        if child is self:
            raise AgentError(f"agent {self._name!r} cannot be its own child")
        self._children.append(child)

    def bind_directory(self, directory: Mapping[Endpoint, "Agent"]) -> None:
        """Install the grid-wide endpoint→agent directory (healing support)."""
        self._directory = directory

    def lookup_agent(self, endpoint: Endpoint) -> Optional["Agent"]:
        """Resolve *endpoint* to an agent: neighbours first, then directory."""
        for neighbour in self.neighbours():
            if neighbour.endpoint == endpoint:
                return neighbour
        if self._directory is not None:
            return self._directory.get(endpoint)
        return None

    def _attach_parent(self, parent: Optional["Agent"]) -> None:
        """Re-parent (healing): set the upper link and refresh its lease."""
        self._parent = parent
        if parent is not None and self._detector is not None:
            self._detector.observe(parent.endpoint)

    def _adopt_child(self, child: "Agent") -> None:
        """Take in an orphan (healing): append and baseline its lease."""
        if child is self:
            raise AgentError(f"agent {self._name!r} cannot adopt itself")
        self._children.append(child)
        if self._detector is not None:
            self._detector.observe(child.endpoint)

    def _on_peer_dead(self, peer: "Agent") -> None:
        """Membership confirmed *peer* dead: sever the link, quarantine its
        stale performance record, and hand any orphaning to the healer."""
        # The policy releases anything the dead peer holds here (booked
        # reservation windows) before the link goes.
        self._policy.on_peer_dead(peer)
        self._registry.pop(peer.endpoint, None)
        self._registry_time.pop(peer.endpoint, None)
        if peer is self._parent:
            self._parent = None
            if self._healer is not None:
                self._healer.on_parent_dead(peer)
        else:
            self._children = [c for c in self._children if c is not peer]

    # ----------------------------------------------------------- advertising

    def service_info(self) -> ServiceInfo:
        """This agent's *fresh* service record (Fig. 5)."""
        freetime = self._scheduler.freetime()
        info = self._info
        if info.freetime != freetime:
            info = self._info = self._static_info.with_freetime(freetime)
        return info

    def start(self) -> None:
        """Activate the advertisement strategy and the failure detector."""
        self._advertisement.start(self)
        if self._detector is not None:
            self._detector.start()

    def stop(self) -> None:
        """Deactivate advertisement, detection, and any healing retries."""
        self._advertisement.stop()
        if self._detector is not None:
            self._detector.stop()
        if self._healer is not None:
            self._healer.cancel_retry()

    def deactivate(self) -> None:
        """Take this agent off the grid (crash simulation).  Idempotent.

        The endpoint unregisters, the advertisement strategy stops, the
        registry is dropped, and — crucially for restartability — every
        sim event this agent owns (ack-timeout timers; the advertisement
        timer via ``stop()``) is cancelled, so a later
        :meth:`reactivate` cannot double-fire stale timers.  Neighbours
        are *not* informed — they discover the absence through failed
        sends and expiring registry entries, exactly like a crashed
        process behind a dead socket.
        """
        if not self._active:
            return
        self._active = False
        self.stop()
        if self._transport.is_registered(self._endpoint):
            self._transport.unregister(self._endpoint)
        for pending in self._pending_acks.values():
            pending.handle.cancel()
        self._pending_acks.clear()
        self._registry.clear()
        self._registry_time.clear()
        # A restart is a new process with no memory: stale dedup keys would
        # make a retransmitted REQUEST after reactivate() look like a
        # duplicate — ACKed but never processed, silently losing it.
        self._seen_forwards.clear()
        # Same for policy-held state: open auctions and booked windows die
        # with the process (settle/release records land before agent.down),
        # so the next incarnation honours no stale bids or grants.
        self._policy.on_deactivate()
        # Same for liveness leases and in-flight repairs.
        if self._detector is not None:
            self._detector.reset()
        if self._healer is not None:
            self._healer.reset()
        if self._tracer is not None:
            from repro.obs.records import AgentDown

            self._tracer.emit(
                AgentDown(
                    t=self._sim.now,
                    agent=self._name,
                    endpoint=str(self._endpoint),
                )
            )

    def reactivate(self) -> None:
        """Return a crashed agent to the grid — the inverse of
        :meth:`deactivate`.  Idempotent.

        The endpoint re-registers, the advertisement strategy restarts
        (a periodic-pull strategy immediately re-pulls every neighbour,
        warming the empty registry), and routing resumes.  Local tasks
        accepted before the crash are unaffected: the paper's local
        scheduler is a separate system that "functions independently"
        of its fronting agent (§2.2).
        """
        if self._active:
            return
        self._transport.register(self._endpoint, self._handle_message)
        self._active = True
        # Emitted before start(): the strategy's immediate re-pulls must
        # appear after the agent.up record, or a trace reader would see a
        # "down" endpoint sending.
        if self._tracer is not None:
            from repro.obs.records import AgentUp

            self._tracer.emit(
                AgentUp(
                    t=self._sim.now,
                    agent=self._name,
                    endpoint=str(self._endpoint),
                )
            )
        self.start()
        # Results that completed while the process was dead go out now,
        # after the agent.up record, so traces never show a down sender.
        if self._held_results:
            held, self._held_results = self._held_results, []
            for envelope, result in held:
                self._send_best_effort(
                    Message(
                        MessageKind.RESULT,
                        self._endpoint,
                        envelope.reply_to,
                        payload=result,
                    )
                )
        # Formally rejoin the tree: the crash may have outlived this
        # agent's lease at its parent, which then severed the link.
        if self._healer is not None:
            self._healer.on_reactivate()

    def _send_best_effort(self, message: Message) -> bool:
        """Send, tolerating a dead recipient; returns delivery acceptance."""
        try:
            self._transport.send(message)
        except TransportError:
            self._send_failed(message.recipient)
            return False
        return True

    def _send_failed(self, recipient: Endpoint) -> None:
        """Count a send to a dead *recipient* and drop its stale record."""
        self._stats.send_failures += 1
        self._registry.pop(recipient, None)
        self._registry_time.pop(recipient, None)

    def pull_neighbours(self) -> None:
        """Send a PULL to every neighbour (periodic-pull strategy hook).

        Dead neighbours are tolerated: the send fails, the failure is
        counted, and their stale registry entry is dropped.  Children are
        pulled first, then the parent: the order of :meth:`neighbours`.
        The sends are :meth:`_send_best_effort` written out in place.
        """
        endpoint = self._endpoint
        send = self._transport.send
        parent = self._parent
        neighbours = (
            self._children if parent is None else chain(self._children, (parent,))
        )
        for neighbour in neighbours:
            recipient = neighbour._endpoint
            try:
                send(
                    _tuple_new(
                        Message,
                        (_PULL, endpoint, recipient, None, 0,
                         next(_wire._message_ids)),
                    )
                )
            except TransportError:
                self._send_failed(recipient)

    def push_to_neighbours(self) -> None:
        """Send an ADVERTISE with fresh info to every neighbour (push hook)."""
        info = self.service_info()
        for neighbour in self.neighbours():
            self._send_best_effort(
                Message(
                    MessageKind.ADVERTISE,
                    self._endpoint,
                    neighbour.endpoint,
                    payload=info,
                )
            )

    # -------------------------------------------------------------- membership

    def send_membership(self, kind: MessageKind, recipient: Endpoint, payload) -> bool:
        """Send one membership-protocol message, tolerating a dead recipient.

        Unlike :meth:`_send_best_effort` this neither counts the failure
        nor evicts registry entries: silence *is* the membership signal,
        and the detector owns the stale-record decision.
        """
        try:
            self._transport.send(
                Message(kind, self._endpoint, recipient, payload=payload)
            )
        except TransportError:
            return False
        return True

    def send_heartbeats(self) -> int:
        """Beacon every neighbour (detector tick hook); returns sends begun.

        Child-bound heartbeats carry the next-of-kin gossip self-healing
        runs on: this agent's parent (the child's grandparent) and its
        children in canonical order (the child's siblings, eldest first).
        """
        sent = 0
        if self._children:
            kin = KinInfo(
                parent=self._name,
                grandparent=(
                    None
                    if self._parent is None
                    else (self._parent.name, self._parent.endpoint)
                ),
                siblings=tuple((c.name, c.endpoint) for c in self._children),
            )
            for child in self._children:
                if self.send_membership(MessageKind.HEARTBEAT, child.endpoint, kin):
                    sent += 1
        if self._parent is not None:
            if self.send_membership(
                MessageKind.HEARTBEAT, self._parent.endpoint, None
            ):
                sent += 1
        return sent

    def replay_advertisement(self) -> None:
        """Replay service advertisements up a freshly healed path.

        Called once the ADOPT/ADOPTED handshake closes: the new parent
        learns this subtree's service record immediately (instead of one
        pull interval later), and the PULL warms this agent's own registry
        with the new parent's record.
        """
        if self._parent is None:
            return
        parent_ep = self._parent.endpoint
        self._send_best_effort(
            Message(
                MessageKind.ADVERTISE,
                self._endpoint,
                parent_ep,
                payload=self.service_info(),
            )
        )
        self._send_best_effort(
            Message(MessageKind.PULL, self._endpoint, parent_ep, payload=None)
        )

    # ----------------------------------------------------------- request path

    def submit(self, envelope: RequestEnvelope) -> None:
        """Entry point for a request arriving at this agent (hop 0)."""
        self._process_request(envelope, hops=0)

    def _process_request(self, envelope: RequestEnvelope, hops: int) -> None:
        self._stats.requests_seen += 1
        envelope = envelope.visited(self._name)
        self._route(envelope, hops, exclude=frozenset(), attempt=0)

    def _route(
        self,
        envelope: RequestEnvelope,
        hops: int,
        *,
        exclude: FrozenSet[Endpoint],
        attempt: int,
        prev_target: Optional[Endpoint] = None,
    ) -> None:
        """Hand *envelope* to the global policy to place.

        ``exclude`` holds targets already tried for this request at this
        station (empty on first routing); retries re-enter here with the
        failed targets excluded so the request re-routes to the
        next-best neighbour instead of hammering a dead one — whatever
        the active policy, a retry re-runs its *full* decision procedure
        (re-discover, re-auction, re-reserve) minus the dead targets.
        """
        self._policy.route(
            envelope,
            hops,
            exclude=exclude,
            attempt=attempt,
            prev_target=prev_target,
        )

    def neighbour_matches(
        self, request, *, exclude: FrozenSet[Endpoint], now: float
    ) -> Dict[Endpoint, MatchResult]:
        """eq.-(10) matches against each usable neighbour's advert.

        Skips excluded and quarantined endpoints, and evicts (counting
        ``registry_expired``) adverts older than the resilience TTL —
        the shared candidate-gathering step of every global policy.
        """
        ttl = self._resilience.registry_ttl
        detector = self._detector
        matches: Dict[Endpoint, MatchResult] = {}
        for neighbour in self.neighbours():
            ep = neighbour.endpoint
            if ep in exclude:
                continue
            if detector is not None and detector.is_quarantined(ep):
                # Suspected peers keep their registry entry (they may just
                # be slow) but never receive dispatches while quarantined.
                continue
            info = self._registry.get(ep)
            if info is None:
                continue
            if ttl is not None and now - self._registry_time.get(ep, now) > ttl:
                # Advert went stale — the neighbour is presumed crashed.
                del self._registry[ep]
                self._registry_time.pop(ep, None)
                self._stats.registry_expired += 1
                continue
            matches[ep] = match_request(
                request, info, self._evaluator, self._catalogue, now
            )
        return matches

    def forward_request(
        self,
        envelope: RequestEnvelope,
        hops: int,
        target: Endpoint,
        *,
        exclude: FrozenSet[Endpoint],
        attempt: int,
        prev_target: Optional[Endpoint] = None,
    ) -> bool:
        """Dispatch *envelope* to *target*; returns delivery acceptance.

        The shared forwarding tail of every global policy: on delivery
        the reroute counter and — with resilience enabled — the
        ack-timeout timer arm exactly as the seed's eq.-(10) path did,
        so retries re-enter the active policy with ``target`` excluded.
        """
        delivered = self._send_best_effort(
            Message(
                MessageKind.REQUEST,
                self._endpoint,
                target,
                payload=envelope,
                hops=hops + 1,
            )
        )
        if not delivered:
            return False
        if prev_target is not None:
            self._stats.reroutes += 1
        if self._resilience.enabled:
            request_id = envelope.request_id
            superseded = self._pending_acks.get(request_id)
            if superseded is not None:
                # The request bounced back here before its earlier hop was
                # ACKed: that forward's timer no longer guards anything.
                superseded.handle.cancel()
            handle = self._sim.schedule_in(
                timeout_for(attempt),
                lambda: self._on_ack_timeout(request_id),
                priority=Priority.MONITORING,
                label=f"ack-timeout-{self._name}-{request_id}",
            )
            self._pending_acks[request_id] = _PendingForward(
                envelope=envelope,
                hops=hops,
                target=target,
                attempt=attempt,
                tried=exclude | {target},
                handle=handle,
            )
        return True

    def _on_ack_timeout(self, request_id: int) -> None:
        """A forwarded REQUEST went unacknowledged: retry or give up."""
        pending = self._pending_acks.pop(request_id, None)
        if pending is None or not self._active:
            return
        # The silent target is presumed dead or partitioned; forget its
        # advertised record so matchmaking stops preferring it.
        self._registry.pop(pending.target, None)
        self._registry_time.pop(pending.target, None)
        next_attempt = pending.attempt + 1
        if next_attempt > MAX_RETRIES:
            self._stats.gave_up += 1
            if self._tracer is not None:
                from repro.obs.records import ForwardGiveUp

                self._tracer.emit(
                    ForwardGiveUp(
                        t=self._sim.now,
                        agent=self._name,
                        request_id=request_id,
                    )
                )
            self._absorb_or_fail(pending.envelope)
            return
        self._stats.retries += 1
        if self._tracer is not None:
            from repro.obs.records import ForwardRetry

            self._tracer.emit(
                ForwardRetry(
                    t=self._sim.now,
                    agent=self._name,
                    request_id=request_id,
                    attempt=next_attempt,
                    target=self._peer_name(pending.target) or str(pending.target),
                )
            )
        self._route(
            pending.envelope,
            pending.hops,
            exclude=pending.tried,
            attempt=next_attempt,
            prev_target=pending.target,
        )

    def _absorb_or_fail(
        self, envelope: RequestEnvelope, local_match: Optional[MatchResult] = None
    ) -> None:
        """Last resort when forwarding is off the table: run the request
        here if this resource supports it, otherwise reject it."""
        if local_match is None:
            local_match = match_request(
                envelope.request,
                self.service_info(),
                self._evaluator,
                self._catalogue,
                self._sim.now,
            )
        if local_match.supported:
            self._submit_locally(envelope)
            return
        self._stats.rejected += 1
        self._send_result(envelope, self._failure_result(envelope))

    def _failure_result(self, envelope: RequestEnvelope) -> TaskResult:
        request = envelope.request
        return TaskResult(
            request_id=envelope.request_id,
            application=request.application.name,
            success=False,
            submit_time=request.submit_time,
            deadline=request.deadline,
            trace=envelope.trace,
        )

    @property
    def _evaluator(self):
        return self._scheduler.evaluator

    def _submit_locally(self, envelope: RequestEnvelope) -> None:
        self._stats.submitted_locally += 1
        task = self._scheduler.submit(envelope.request)
        self._reply_to[task.task_id] = envelope
        if self._tracer is not None:
            from repro.obs.records import LocalSubmit

            self._tracer.emit(
                LocalSubmit(
                    t=self._sim.now,
                    agent=self._name,
                    request_id=envelope.request_id,
                    task_id=task.task_id,
                )
            )
        if envelope.request.workflow is not None:
            self._stage_in_inputs(task.task_id, envelope.request)

    def transfer_penalty(self, request: TaskRequest, resource_name: str) -> float:
        """Data-gravity term: seconds to stage *request*'s remote inputs.

        Inputs already on *resource_name* (or bound to an in-flight
        co-located parent, marked by an empty source) cost nothing; each
        of the others charges its serialisation delay.  Zero for
        independent tasks.
        """
        binding = request.workflow
        if binding is None:
            return 0.0
        total = 0.0
        for _parent, source, size in binding.inputs:
            if source and source != resource_name:
                total += size / TRANSFER_BANDWIDTH
        return total

    def _stage_in_inputs(self, task_id: int, request: TaskRequest) -> None:
        """Pull every remote input of a just-accepted workflow task.

        Each remote input becomes a TRANSFER message this agent sends to
        itself, delayed by its serialisation time (``size /
        TRANSFER_BANDWIDTH``) — data movement rides the same delivery,
        fault, and checkpoint machinery as protocol traffic.  The
        scheduler's gate for the task was registered during submit; each
        arrival clears one key.
        """
        binding = request.workflow
        assert binding is not None
        own = self._scheduler.resource.name
        now = self._sim.now
        for parent_node, source, size in binding.inputs:
            if not source or source == own:
                continue  # co-located (gated on completion) or already local
            delay = size / TRANSFER_BANDWIDTH
            self._scheduler.set_start_floor(task_id, now + delay)
            self._transport.send(
                Message(
                    MessageKind.TRANSFER,
                    self._endpoint,
                    self._endpoint,
                    payload=TransferPayload(
                        workflow_id=binding.workflow_id,
                        node=binding.node,
                        parent=parent_node,
                        source=source,
                        size=size,
                        task_id=task_id,
                    ),
                ),
                extra_latency=delay,
            )

    # --------------------------------------------------------------- messages

    def _handle_message(self, message: Message) -> None:
        # Kinds are tested most frequent first: at scale nearly every
        # message is the periodic PULL and the ADVERTISE answering it.
        kind = message.kind
        if kind is _PULL:
            self._stats.pulls_answered += 1
            # Best-effort: under churn plus delivery delay the puller may
            # have died (and unregistered) while its PULL was in flight.
            recipient = message.sender
            try:
                self._transport.send(
                    _tuple_new(
                        Message,
                        (_ADVERTISE, self._endpoint, recipient,
                         self.service_info(), 0, next(_wire._message_ids)),
                    )
                )
            except TransportError:
                self._send_failed(recipient)
        elif kind is _ADVERTISE:
            info = message.payload
            if not isinstance(info, ServiceInfo):
                raise AgentError(f"bad ADVERTISE payload: {type(info).__name__}")
            self._stats.advertisements_received += 1
            sender = message.sender
            self._registry[sender] = info
            self._registry_time[sender] = self._sim.now
        elif kind is _REQUEST:
            envelope = message.payload
            if not isinstance(envelope, RequestEnvelope):
                raise AgentError(f"bad REQUEST payload: {type(envelope).__name__}")
            if self._resilience.enabled:
                key = (message.sender, envelope.request_id, message.hops)
                duplicate = self._remember_forward(key)
                # Acknowledge even duplicates: a retransmission means the
                # sender never saw the first ACK.
                self._stats.acks_sent += 1
                if self._tracer is not None:
                    from repro.obs.records import AckSent

                    self._tracer.emit(
                        AckSent(
                            t=self._sim.now,
                            agent=self._name,
                            request_id=envelope.request_id,
                            duplicate=duplicate,
                        )
                    )
                self._send_best_effort(
                    Message(
                        _ACK,
                        self._endpoint,
                        message.sender,
                        payload=envelope.request_id,
                        hops=message.hops,
                    )
                )
                if duplicate:
                    self._stats.duplicates_ignored += 1
                    return
            self._process_request(envelope, hops=message.hops)
        elif kind is _ACK:
            self._stats.acks_received += 1
            pending = self._pending_acks.get(message.payload)
            # An ACK clears only the forward it acknowledges: a late ACK
            # from a prior attempt's target, or of an earlier hop of a
            # request that bounced back here, leaves the pending entry to
            # the forward that superseded it.
            if (
                pending is not None
                and pending.target == message.sender
                and message.hops == pending.hops + 1
            ):
                pending.handle.cancel()
                del self._pending_acks[message.payload]
        elif kind is _TRANSFER:
            payload = message.payload
            if not isinstance(payload, TransferPayload):
                raise AgentError(
                    f"bad TRANSFER payload: {type(payload).__name__}"
                )
            if self._tracer is not None:
                from repro.obs.records import DagTransfer

                self._tracer.emit(
                    DagTransfer(
                        t=self._sim.now,
                        agent=self._name,
                        workflow=payload.workflow_id,
                        node=payload.node,
                        source=payload.source,
                        size=payload.size,
                    )
                )
            self._scheduler.notify_input_arrived(payload.task_id, payload.parent)
        elif kind is _HEARTBEAT:
            # Tolerated with membership off: a mixed-config neighbour may
            # still beacon; there is simply nothing to refresh here.
            if self._detector is not None:
                self._detector.observe(message.sender)
            if self._healer is not None and isinstance(message.payload, KinInfo):
                self._healer.on_heartbeat(message.sender, message.payload)
        elif kind is _ADOPT:
            if self._detector is not None:
                self._detector.observe(message.sender)
            if self._healer is not None:
                self._healer.handle_adopt(message.sender)
        elif kind is _ADOPTED:
            if self._detector is not None:
                self._detector.observe(message.sender)
            if self._healer is not None:
                self._healer.handle_adopted(message.sender)
        else:
            # Policy-protocol kinds (CFP/BID/RESERVE/CONFIRM/REJECT/RELEASE)
            # belong to the active global policy; anything it disowns is a
            # genuine protocol error.
            if not self._policy.handle_message(message):
                raise AgentError(
                    f"agent {self._name!r} cannot handle {kind.value!r}"
                )

    def _remember_forward(self, key: Tuple[Endpoint, int, int]) -> bool:
        """Record a forward-dedup key; returns whether it was already known.

        The map is kept in recency order: a known key moves to the tail,
        and past :data:`DEDUP_CAP` keys the least-recently-seen one is
        evicted, so a retransmission older than the cap horizon counts as
        new work.
        """
        duplicate = key in self._seen_forwards
        if duplicate:
            del self._seen_forwards[key]  # re-insert at the recency tail
        self._seen_forwards[key] = self._sim.now
        while len(self._seen_forwards) > DEDUP_CAP:
            del self._seen_forwards[next(iter(self._seen_forwards))]
        return duplicate

    # ----------------------------------------------------------------- results

    def _handle_local_completion(self, task: Task) -> None:
        envelope = self._reply_to.pop(task.task_id, None)
        if envelope is None:
            return  # submitted directly to the scheduler, not via this agent
        assert task.completion_time is not None and task.start_time is not None
        result = TaskResult(
            request_id=envelope.request_id,
            application=task.application.name,
            success=True,
            resource_name=task.resource_name or self._scheduler.resource.name,
            submit_time=task.request.submit_time,
            start_time=task.start_time,
            completion_time=task.completion_time,
            deadline=task.deadline,
            trace=envelope.trace,
        )
        if not self._active and self._membership.enabled:
            # The cluster kept computing, but the fronting process is dead:
            # nothing can transmit until a restart.  Held results flush in
            # reactivate(); a permanently dead agent never delivers them,
            # which is exactly the availability loss Experiment 5 measures.
            self._held_results.append((envelope, result))
            return
        self._send_result(envelope, result)

    def _send_result(self, envelope: RequestEnvelope, result: TaskResult) -> None:
        self._transport.send(
            Message(
                MessageKind.RESULT,
                self._endpoint,
                envelope.reply_to,
                payload=result,
            )
        )

    # ------------------------------------------------------------- checkpoint

    def snapshot_state(self) -> dict:
        """Registries, routing memory, resilience state, and liveness.

        The reply map references tasks by id (the scheduler owns the task
        table); pending forwards carry their ack-timeout event descriptors
        so restore re-creates the exact timers.
        """
        from repro.checkpoint.codec import (
            encode_endpoint,
            encode_envelope,
            encode_service_info,
            encode_task_result,
        )

        return {
            "active": self._active,
            "held": [
                [encode_envelope(env), encode_task_result(res)]
                for env, res in self._held_results
            ],
            "registry": [
                [encode_endpoint(ep), encode_service_info(info)]
                for ep, info in sorted(self._registry.items())
            ],
            "registry_time": [
                [encode_endpoint(ep), t]
                for ep, t in sorted(self._registry_time.items())
            ],
            "reply_to": {
                str(tid): encode_envelope(env)
                for tid, env in sorted(self._reply_to.items())
            },
            "stats": {f.name: getattr(self._stats, f.name) for f in fields(self._stats)},
            "pending_acks": {
                str(rid): {
                    "envelope": encode_envelope(p.envelope),
                    "hops": p.hops,
                    "target": encode_endpoint(p.target),
                    "attempt": p.attempt,
                    "tried": [encode_endpoint(ep) for ep in sorted(p.tried)],
                    "event": p.handle.descriptor(),
                }
                for rid, p in sorted(self._pending_acks.items())
            },
            # Insertion (= recency) order, not sorted: eviction order must
            # survive the round-trip for resume byte-identity.
            "seen_forwards": [
                [encode_endpoint(ep), rid, hops, t]
                for (ep, rid, hops), t in self._seen_forwards.items()
            ],
            "advertisement": self._advertisement.snapshot_state(),
            # In-flight policy protocol state (open auctions, pending
            # reservations, booked windows); {} for the stateless eq10.
            "policy": self._policy.snapshot_state(),
            "membership": (
                None
                if self._detector is None or self._healer is None
                else {
                    # Current wiring: healing re-parents at runtime, so the
                    # built topology is not authoritative after a repair.
                    "parent": (
                        None
                        if self._parent is None
                        else encode_endpoint(self._parent.endpoint)
                    ),
                    "children": [
                        encode_endpoint(c.endpoint) for c in self._children
                    ],
                    "detector": self._detector.snapshot_state(),
                    "healer": self._healer.snapshot_state(),
                }
            ),
        }

    def restore_state(self, state: dict, *, applications) -> None:
        """Rebuild from a snapshot without emitting lifecycle trace records.

        Must run on a freshly built (registered, active, not-yet-started)
        agent.  An agent snapshot mid-crash unregisters silently — the
        down/up records already sit in the pre-checkpoint trace, so
        re-emitting them here would duplicate history.
        """
        from repro.checkpoint.codec import (
            decode_endpoint,
            decode_envelope,
            decode_service_info,
            decode_task_result,
        )

        self._held_results = [
            (decode_envelope(raw_env, applications), decode_task_result(raw_res))
            for raw_env, raw_res in state["held"]
        ]
        self._registry = {
            decode_endpoint(ep): decode_service_info(info)
            for ep, info in state["registry"]
        }
        self._registry_time = {
            decode_endpoint(ep): float(t) for ep, t in state["registry_time"]
        }
        self._reply_to = {
            int(tid): decode_envelope(raw, applications)
            for tid, raw in state["reply_to"].items()
        }
        for f in fields(self._stats):
            setattr(self._stats, f.name, int(state["stats"][f.name]))
        self._seen_forwards = {
            (decode_endpoint(ep), int(rid), int(hops)): float(t)
            for ep, rid, hops, t in state["seen_forwards"]
        }
        for pending in self._pending_acks.values():
            pending.handle.cancel()
        self._pending_acks = {}
        for rid, raw in state["pending_acks"].items():
            request_id = int(rid)
            handle = self._sim.restore_event(
                raw["event"], lambda r=request_id: self._on_ack_timeout(r)
            )
            self._pending_acks[request_id] = _PendingForward(
                envelope=decode_envelope(raw["envelope"], applications),
                hops=int(raw["hops"]),
                target=decode_endpoint(raw["target"]),
                attempt=int(raw["attempt"]),
                tried=frozenset(decode_endpoint(ep) for ep in raw["tried"]),
                handle=handle,
            )
        self._advertisement.restore_state(state["advertisement"], self)
        self._policy.restore_state(state["policy"], applications=applications)
        member_state = state["membership"]
        if (
            member_state is not None
            and self._detector is not None
            and self._healer is not None
        ):
            # Re-wire the *current* links first (the snapshot may sit
            # mid-heal, after an adoption the built topology predates);
            # detector and healer state is keyed by these links.
            directory = self._directory or {}
            raw_parent = member_state["parent"]
            self._parent = (
                None if raw_parent is None else directory[decode_endpoint(raw_parent)]
            )
            self._children = [
                directory[decode_endpoint(ep)] for ep in member_state["children"]
            ]
            self._detector.restore_state(member_state["detector"])
            self._healer.restore_state(member_state["healer"])
        was_active = bool(state["active"])
        if not was_active and self._active:
            # Crash state, silently: no trace records, no timer churn.
            self._active = False
            if self._transport.is_registered(self._endpoint):
                self._transport.unregister(self._endpoint)
