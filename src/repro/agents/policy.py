"""Pluggable global balancing policies (ROADMAP item 3).

The paper's hierarchy has exactly one global dispatch rule — eq.-(10)
completion-time discovery with escalation (§3.1).  This module factors
that rule out of :class:`~repro.agents.agent.Agent` into a
:class:`GlobalPolicy` interface so contenders can be swapped in per
experiment without touching the agent, the transport, or the schedulers:

:class:`Eq10Policy`
    The seed path, moved verbatim.  Selecting it (the default) is
    byte-identical to the pre-policy agent: same records, same metrics,
    same RNG digest (property-tested in
    ``tests/properties/test_policy_defaults.py``).
:class:`AuctionPolicy`
    Contract-net dispatch (arXiv:1803.04385): the receiving agent opens
    a CFP round over its neighbours, collects sealed completion-time
    bids, and awards the request to the deterministic best bid when all
    bids are in or a bounded bid timeout closes the round.
:class:`ReservationPolicy`
    Advance reservations (arXiv:1106.5310): instead of dispatching
    immediately, the agent asks the best advertised neighbour to *book*
    a future freetime window; the request is forwarded only once a
    CONFIRM arrives, and booked windows are released on consumption,
    decline, expiry, or the booker's confirmed death.

Determinism rules every policy must obey (see docs/policies.md):

* decisions are pure functions of agent state and message contents —
  no wall clock, no ``id()``, no unkeyed RNG draws;
* every tie-break is total (``(eta, is_remote, (address, port))``);
* collection iteration order is insertion order or explicitly sorted;
* timers go through ``sim.schedule_in`` with deterministic labels and
  are cancelled in :meth:`GlobalPolicy.on_deactivate` so a restarted
  agent never honours state from its previous incarnation;
* in-flight protocol state round-trips through
  :meth:`GlobalPolicy.snapshot_state` / ``restore_state`` for
  checkpoint/resume byte-identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.agents.discovery import MAX_HOPS, Decision, discover
from repro.agents.matchmaking import match_request
from repro.errors import ValidationError
from repro.net.message import Endpoint, Message, MessageKind
from repro.net.payloads import BidInfo, RequestEnvelope, ReservationGrant
from repro.obs.records import (
    AuctionBid,
    AuctionOpened,
    AuctionSettled,
    DiscoveryEvaluated,
    ForwardGiveUp,
    ReservationBooked,
    ReservationReleased,
    ReservationRequested,
)
from repro.sim.events import Event, Priority

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.agents.agent import Agent

__all__ = [
    "POLICY_KINDS",
    "GlobalPolicyConfig",
    "GlobalPolicy",
    "Eq10Policy",
    "AuctionPolicy",
    "ReservationPolicy",
    "make_policy",
]

#: The registered policy kinds, in tournament order.
POLICY_KINDS: Tuple[str, ...] = ("eq10", "auction", "reservation")

#: Slack for window feasibility comparisons against deadlines.
_EPS = 1e-9


@dataclass(frozen=True)
class GlobalPolicyConfig:
    """Which global balancing policy a grid runs, plus its knobs.

    ``bid_timeout`` bounds an auction's bid-collection window and
    ``reservation_timeout`` bounds the CONFIRM/REJECT wait — both reuse
    the resilience layer's timer machinery (monitoring-priority sim
    events with deterministic labels), so a silent peer can never stall
    a request forever.
    """

    kind: str = "eq10"
    bid_timeout: float = 3.0
    reservation_timeout: float = 3.0

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ValidationError(
                f"unknown global policy {self.kind!r}; expected one of "
                f"{sorted(POLICY_KINDS)}"
            )
        if self.bid_timeout <= 0:
            raise ValidationError(
                f"bid_timeout must be > 0, got {self.bid_timeout}"
            )
        if self.reservation_timeout <= 0:
            raise ValidationError(
                f"reservation_timeout must be > 0, got {self.reservation_timeout}"
            )


class GlobalPolicy:
    """One agent's global balancing strategy.

    A policy is a *friend* of its agent: it reads the registry, stats,
    detector, and tracer directly and drives the agent's submit/forward
    primitives.  The agent delegates every routing entry (fresh
    requests, ack-timeout retries) to :meth:`route` and offers unknown
    message kinds to :meth:`handle_message` before erroring.
    """

    kind: str = "abstract"

    def __init__(self, config: GlobalPolicyConfig, agent: "Agent") -> None:
        self.config = config
        self.agent = agent

    # ------------------------------------------------------------- interface

    def route(
        self,
        envelope: RequestEnvelope,
        hops: int,
        *,
        exclude: FrozenSet[Endpoint],
        attempt: int,
        prev_target: Optional[Endpoint] = None,
    ) -> None:
        """Decide where *envelope* goes and act on it."""
        raise NotImplementedError

    def handle_message(self, message: Message) -> bool:
        """Consume a policy-protocol message; ``False`` if not ours."""
        return False

    def on_deactivate(self) -> None:
        """The agent is crashing: cancel timers, drop in-flight state.

        Runs *before* the ``agent.down`` trace record so any settlement
        or release records a policy emits precede the crash marker.
        """

    def on_peer_dead(self, peer: "Agent") -> None:
        """Membership confirmed *peer* dead (release its holdings)."""

    def snapshot_state(self) -> dict:
        """JSON-ready in-flight protocol state (checkpoint support)."""
        return {}

    def restore_state(self, state: dict, *, applications) -> None:
        """Inverse of :meth:`snapshot_state` on a freshly built agent."""


class Eq10Policy(GlobalPolicy):
    """The paper's discovery rule: eq. (10) + escalate, moved verbatim.

    Stateless — all routing memory (pending acks, stats) stays
    on the agent, exactly where the seed kept it, so selecting this
    policy is byte-identical to the pre-policy code path.
    """

    kind = "eq10"

    def route(
        self,
        envelope: RequestEnvelope,
        hops: int,
        *,
        exclude: FrozenSet[Endpoint],
        attempt: int,
        prev_target: Optional[Endpoint] = None,
    ) -> None:
        agent = self.agent
        request = envelope.request
        now = agent.sim.now
        local_match = match_request(
            request, agent.service_info(), agent._evaluator, agent._catalogue, now
        )
        neighbour_matches = agent.neighbour_matches(
            request, exclude=exclude, now=now
        )
        if (
            request.workflow is not None
            and agent._discovery_config.data_gravity
        ):
            # Data gravity: charge each candidate the staging time of the
            # inputs it does not already hold, pulling children toward
            # their parents' outputs (eq. (10) extended per-candidate).
            local_match = local_match.with_transfer_penalty(
                agent.transfer_penalty(
                    request, agent._scheduler.resource.name
                ),
                request.deadline,
            )
            neighbour_matches = {
                ep: match.with_transfer_penalty(
                    agent.transfer_penalty(request, agent._peer_name(ep) or ""),
                    request.deadline,
                )
                for ep, match in neighbour_matches.items()
            }
        parent = agent._parent
        detector = agent._detector
        parent_ep = parent.endpoint if parent is not None else None
        if (
            parent_ep is not None
            and detector is not None
            and detector.is_quarantined(parent_ep)
        ):
            # A suspected parent cannot be escalated to either; discovery
            # falls back to head behaviour (best-effort local) meanwhile.
            parent_ep = None
        outcome = discover(
            local_match, neighbour_matches, parent_ep, hops, agent._discovery_config
        )
        if agent._tracer is not None:
            agent._tracer.emit(
                DiscoveryEvaluated(
                    t=now,
                    agent=agent._name,
                    request_id=envelope.request_id,
                    hops=hops,
                    decision=outcome.decision.value,
                    target=agent._peer_name(outcome.target),
                    estimate=outcome.estimate,
                    reason=outcome.reason,
                )
            )
        if outcome.decision is Decision.LOCAL:
            agent._submit_locally(envelope)
            return
        if outcome.decision is not Decision.FORWARD:
            agent._stats.rejected += 1
            agent._send_result(envelope, agent._failure_result(envelope))
            return
        assert outcome.target is not None
        if outcome.target in exclude:
            # Escalation is unconditional in discover(), so a retry can
            # re-pick an already-tried parent; going around again would
            # loop, not progress.
            agent._stats.gave_up += 1
            if agent._tracer is not None:
                agent._tracer.emit(
                    ForwardGiveUp(
                        t=now,
                        agent=agent._name,
                        request_id=envelope.request_id,
                    )
                )
            agent._absorb_or_fail(envelope, local_match)
            return
        agent._stats.forwarded += 1
        if outcome.target == parent_ep and outcome.reason.startswith("escalate"):
            agent._stats.escalated += 1
        delivered = agent.forward_request(
            envelope,
            hops,
            outcome.target,
            exclude=exclude,
            attempt=attempt,
            prev_target=prev_target,
        )
        if not delivered:
            # The chosen agent is gone; absorb the request locally if
            # possible rather than losing it (its registry entry was
            # dropped, so the next decision will not repeat the pick).
            agent._absorb_or_fail(envelope, local_match)


# --------------------------------------------------------------------- auction


@dataclass
class _OpenAuction:
    """One in-flight CFP round at its auctioneer."""

    envelope: RequestEnvelope
    hops: int
    exclude: FrozenSet[Endpoint]
    attempt: int
    prev_target: Optional[Endpoint]
    local_eta: float
    local_supported: bool
    local_meets: bool
    pending: Set[Endpoint]
    bids: Dict[Endpoint, BidInfo] = field(default_factory=dict)
    handle: Optional[Event] = None


def _candidate_key(item):
    """Total order over auction candidates: ``(eta, is_remote, endpoint)``.

    The same order :func:`repro.agents.discovery._best_effort_key` gives
    discovery's best-effort fallback: lower ETA wins, an exact tie
    prefers running locally, and remote ties break on (address, port).
    """
    endpoint, (eta, _meets) = item
    is_remote = endpoint is not None
    endpoint_key = (endpoint.address, endpoint.port) if is_remote else ("", 0)
    return (eta, is_remote, endpoint_key)


class AuctionPolicy(GlobalPolicy):
    """Contract-net dispatch: CFP → sealed bids → deterministic award.

    A request the local service can serve within its deadline is
    absorbed immediately (the paper's "own service first" short-cut
    bounds auction traffic).  Otherwise the agent opens an auction over
    every reachable, non-excluded, non-quarantined neighbour; each
    bidder answers with its *fresh* eq.-(10) completion estimate — even
    an unsupportive one bids (``supported=False``) so the round settles
    as soon as every answer is in rather than waiting out the timeout.
    The award forwards the request over the ordinary REQUEST machinery,
    so the resilience layer's ACK/retry path (and hence re-auctioning
    with exclusions) composes unchanged.
    """

    kind = "auction"

    def __init__(self, config: GlobalPolicyConfig, agent: "Agent") -> None:
        super().__init__(config, agent)
        self._open: Dict[int, _OpenAuction] = {}

    def route(
        self,
        envelope: RequestEnvelope,
        hops: int,
        *,
        exclude: FrozenSet[Endpoint],
        attempt: int,
        prev_target: Optional[Endpoint] = None,
    ) -> None:
        agent = self.agent
        request = envelope.request
        now = agent.sim.now
        request_id = envelope.request_id
        if request_id in self._open:
            # A duplicate delivery slipped past the dedup layer while the
            # auction is still collecting bids; the open round owns it.
            return
        local_match = match_request(
            request, agent.service_info(), agent._evaluator, agent._catalogue, now
        )
        config = agent._discovery_config
        if config.local_only:
            if local_match.supported:
                agent._submit_locally(envelope)
            else:
                agent._stats.rejected += 1
                agent._send_result(envelope, agent._failure_result(envelope))
            return
        if local_match.supported and local_match.meets_deadline:
            agent._submit_locally(envelope)
            return
        if hops >= MAX_HOPS:
            agent._absorb_or_fail(envelope, local_match)
            return
        detector = agent._detector
        auction = _OpenAuction(
            envelope=envelope,
            hops=hops,
            exclude=exclude,
            attempt=attempt,
            prev_target=prev_target,
            local_eta=local_match.eta,
            local_supported=local_match.supported,
            local_meets=local_match.meets_deadline,
            pending=set(),
        )
        for neighbour in agent.neighbours():
            ep = neighbour.endpoint
            if ep in exclude:
                continue
            if detector is not None and detector.is_quarantined(ep):
                continue
            delivered = agent._send_best_effort(
                Message(MessageKind.CFP, agent._endpoint, ep, payload=envelope)
            )
            if delivered:
                auction.pending.add(ep)
        if not auction.pending:
            self._settle(auction, "no-bidders")
            return
        if agent._tracer is not None:
            agent._tracer.emit(
                AuctionOpened(
                    t=now,
                    agent=agent._name,
                    request_id=request_id,
                    hops=hops,
                    bidders=len(auction.pending),
                )
            )
        auction.handle = agent.sim.schedule_in(
            self.config.bid_timeout,
            lambda: self._on_bid_timeout(request_id),
            priority=Priority.MONITORING,
            label=f"bid-timeout-{agent._name}-{request_id}",
        )
        self._open[request_id] = auction

    def handle_message(self, message: Message) -> bool:
        if message.kind is MessageKind.CFP:
            self._on_cfp(message)
            return True
        if message.kind is MessageKind.BID:
            self._on_bid(message)
            return True
        return False

    def _on_cfp(self, message: Message) -> None:
        """Answer a CFP with this agent's fresh completion-time bid."""
        envelope = message.payload
        agent = self.agent
        match = match_request(
            envelope.request,
            agent.service_info(),
            agent._evaluator,
            agent._catalogue,
            agent.sim.now,
        )
        bid = BidInfo(
            request_id=envelope.request_id,
            eta=match.eta if match.supported else float("inf"),
            supported=match.supported,
        )
        agent._send_best_effort(
            Message(MessageKind.BID, agent._endpoint, message.sender, payload=bid)
        )

    def _on_bid(self, message: Message) -> None:
        bid = message.payload
        auction = self._open.get(bid.request_id)
        if auction is None or message.sender not in auction.pending:
            # Late (post-settlement), stale (previous incarnation), or
            # duplicate bid: sealed rounds ignore it.
            return
        auction.pending.discard(message.sender)
        auction.bids[message.sender] = bid
        agent = self.agent
        if agent._tracer is not None:
            agent._tracer.emit(
                AuctionBid(
                    t=agent.sim.now,
                    agent=agent._name,
                    request_id=bid.request_id,
                    bidder=agent._peer_name(message.sender) or str(message.sender),
                    eta=bid.eta,
                    supported=bid.supported,
                )
            )
        if not auction.pending:
            if auction.handle is not None:
                auction.handle.cancel()
            del self._open[bid.request_id]
            self._settle(auction, "all-bids")

    def _on_bid_timeout(self, request_id: int) -> None:
        auction = self._open.pop(request_id, None)
        if auction is None or not self.agent._active:
            return
        self._settle(auction, "timeout")

    def _settle(self, auction: _OpenAuction, reason: str) -> None:
        """Award the request to the best candidate (or absorb/reject)."""
        agent = self.agent
        request = auction.envelope.request
        request_id = auction.envelope.request_id
        candidates: Dict[Optional[Endpoint], Tuple[float, bool]] = {}
        if auction.local_supported:
            candidates[None] = (auction.local_eta, auction.local_meets)
        for ep, bid in auction.bids.items():
            if bid.supported:
                candidates[ep] = (bid.eta, bid.eta <= request.deadline + _EPS)
        meeting = {ep: c for ep, c in candidates.items() if c[1]}
        pool = meeting or candidates
        if not pool or (not meeting and agent._discovery_config.strict):
            if agent._tracer is not None:
                agent._tracer.emit(
                    AuctionSettled(
                        t=agent.sim.now,
                        agent=agent._name,
                        request_id=request_id,
                        winner=None,
                        estimate=float("inf"),
                        reason=reason,
                    )
                )
            if not pool:
                agent._absorb_or_fail(auction.envelope)
            else:
                agent._stats.rejected += 1
                agent._send_result(
                    auction.envelope, agent._failure_result(auction.envelope)
                )
            return
        winner, (eta, _meets) = min(pool.items(), key=_candidate_key)
        if agent._tracer is not None:
            agent._tracer.emit(
                AuctionSettled(
                    t=agent.sim.now,
                    agent=agent._name,
                    request_id=request_id,
                    winner=None if winner is None else agent._peer_name(winner),
                    estimate=eta,
                    reason=reason,
                )
            )
        if winner is None:
            agent._submit_locally(auction.envelope)
            return
        agent._stats.forwarded += 1
        delivered = agent.forward_request(
            auction.envelope,
            auction.hops,
            winner,
            exclude=auction.exclude,
            attempt=auction.attempt,
            prev_target=auction.prev_target,
        )
        if not delivered:
            agent._absorb_or_fail(auction.envelope)

    def on_deactivate(self) -> None:
        """Drop every open round: a restarted auctioneer honours nothing
        from its previous incarnation (late bids become strangers)."""
        agent = self.agent
        for request_id, auction in self._open.items():
            if auction.handle is not None:
                auction.handle.cancel()
            if agent._tracer is not None:
                agent._tracer.emit(
                    AuctionSettled(
                        t=agent.sim.now,
                        agent=agent._name,
                        request_id=request_id,
                        winner=None,
                        estimate=float("inf"),
                        reason="crash",
                    )
                )
        self._open.clear()

    def snapshot_state(self) -> dict:
        from repro.checkpoint.codec import (
            encode_bid_info,
            encode_endpoint,
            encode_envelope,
        )

        return {
            # Insertion order, not sorted: crash-settlement emission order
            # must survive the round-trip for resume byte-identity.
            "open": [
                {
                    "request_id": request_id,
                    "envelope": encode_envelope(a.envelope),
                    "hops": a.hops,
                    "exclude": [encode_endpoint(ep) for ep in sorted(a.exclude)],
                    "attempt": a.attempt,
                    "prev_target": (
                        None
                        if a.prev_target is None
                        else encode_endpoint(a.prev_target)
                    ),
                    "local_eta": a.local_eta,
                    "local_supported": a.local_supported,
                    "local_meets": a.local_meets,
                    "pending": [encode_endpoint(ep) for ep in sorted(a.pending)],
                    "bids": [
                        [encode_endpoint(ep), encode_bid_info(bid)]
                        for ep, bid in a.bids.items()
                    ],
                    "event": a.handle.descriptor() if a.handle is not None else None,
                }
                for request_id, a in self._open.items()
            ],
        }

    def restore_state(self, state: dict, *, applications) -> None:
        from repro.checkpoint.codec import (
            decode_bid_info,
            decode_endpoint,
            decode_envelope,
        )

        for auction in self._open.values():
            if auction.handle is not None:
                auction.handle.cancel()
        self._open = {}
        for raw in state.get("open", []):
            request_id = int(raw["request_id"])
            handle = (
                None
                if raw["event"] is None
                else self.agent.sim.restore_event(
                    raw["event"], lambda r=request_id: self._on_bid_timeout(r)
                )
            )
            self._open[request_id] = _OpenAuction(
                envelope=decode_envelope(raw["envelope"], applications),
                hops=int(raw["hops"]),
                exclude=frozenset(
                    decode_endpoint(ep) for ep in raw["exclude"]
                ),
                attempt=int(raw["attempt"]),
                prev_target=(
                    None
                    if raw["prev_target"] is None
                    else decode_endpoint(raw["prev_target"])
                ),
                local_eta=float(raw["local_eta"]),
                local_supported=bool(raw["local_supported"]),
                local_meets=bool(raw["local_meets"]),
                pending={decode_endpoint(ep) for ep in raw["pending"]},
                bids={
                    decode_endpoint(ep): decode_bid_info(bid)
                    for ep, bid in raw["bids"]
                },
                handle=handle,
            )


# ----------------------------------------------------------------- reservation


@dataclass
class _PendingReservation:
    """One RESERVE awaiting CONFIRM/REJECT at its requester."""

    envelope: RequestEnvelope
    hops: int
    exclude: FrozenSet[Endpoint]
    attempt: int
    prev_target: Optional[Endpoint]
    target: Endpoint
    candidates: List[Endpoint]
    tried: int = 0
    handle: Optional[Event] = None


class ReservationPolicy(GlobalPolicy):
    """Advance reservations: book a future freetime window, then forward.

    A request the local service can serve within its deadline is
    absorbed immediately.  Otherwise candidates are ranked by their
    advertised eq.-(10) estimate (registry neighbours, with the parent
    appended as the escalation fallback) and asked — one at a time — to
    book a window via RESERVE.  The asked agent books the earliest slot
    after its freetime and every window it already holds, *only if* that
    slot still meets the deadline; otherwise it REJECTs and the
    requester moves down its candidate list, absorbing the request
    best-effort when the list runs dry.  A CONFIRM forwards the request
    over the ordinary REQUEST machinery; arrival of that forward
    consumes the window.  Windows are also released on decline, on
    expiry (lazily, when the next RESERVE arrives), on the booker's
    membership-confirmed death, and on the holder's own crash.
    """

    kind = "reservation"

    def __init__(self, config: GlobalPolicyConfig, agent: "Agent") -> None:
        super().__init__(config, agent)
        self._pending: Dict[int, _PendingReservation] = {}
        # request id -> (booker endpoint, window start, window end)
        self._bookings: Dict[int, Tuple[Endpoint, float, float]] = {}

    def route(
        self,
        envelope: RequestEnvelope,
        hops: int,
        *,
        exclude: FrozenSet[Endpoint],
        attempt: int,
        prev_target: Optional[Endpoint] = None,
    ) -> None:
        agent = self.agent
        request = envelope.request
        now = agent.sim.now
        request_id = envelope.request_id
        booking = self._bookings.pop(request_id, None)
        if booking is not None:
            # The booker's forwarded REQUEST arrived: consume the window.
            if agent._tracer is not None:
                agent._tracer.emit(
                    ReservationReleased(
                        t=now,
                        agent=agent._name,
                        request_id=request_id,
                        booker=agent._peer_name(booking[0]) or str(booking[0]),
                        reason="consumed",
                    )
                )
            agent._submit_locally(envelope)
            return
        if request_id in self._pending:
            # A duplicate delivery slipped past the dedup layer while a
            # reservation is already in flight; that attempt owns it.
            return
        local_match = match_request(
            request, agent.service_info(), agent._evaluator, agent._catalogue, now
        )
        config = agent._discovery_config
        if config.local_only:
            if local_match.supported:
                agent._submit_locally(envelope)
            else:
                agent._stats.rejected += 1
                agent._send_result(envelope, agent._failure_result(envelope))
            return
        if local_match.supported and local_match.meets_deadline:
            agent._submit_locally(envelope)
            return
        if hops >= MAX_HOPS:
            agent._absorb_or_fail(envelope, local_match)
            return
        matches = agent.neighbour_matches(request, exclude=exclude, now=now)
        ranked = [
            ep
            for ep, m in sorted(
                matches.items(), key=lambda kv: (kv[1].eta, kv[0])
            )
            if m.supported
        ]
        detector = agent._detector
        parent = agent._parent
        if parent is not None:
            # Escalation fallback: even without a registry entry the
            # parent is asked last — it answers from fresh state.
            parent_ep = parent.endpoint
            quarantined = detector is not None and detector.is_quarantined(
                parent_ep
            )
            if (
                parent_ep not in ranked
                and parent_ep not in exclude
                and not quarantined
            ):
                ranked.append(parent_ep)
        if not ranked:
            agent._absorb_or_fail(envelope, local_match)
            return
        pending = _PendingReservation(
            envelope=envelope,
            hops=hops,
            exclude=exclude,
            attempt=attempt,
            prev_target=prev_target,
            target=ranked[0],
            candidates=ranked[1:],
        )
        self._pending[request_id] = pending
        self._try_next(request_id, pending)

    def _try_next(self, request_id: int, pending: _PendingReservation) -> None:
        """RESERVE the current target, walking the candidate list on
        undeliverable targets; absorb-or-fail when it runs dry."""
        agent = self.agent
        while True:
            pending.tried += 1
            if agent._tracer is not None:
                agent._tracer.emit(
                    ReservationRequested(
                        t=agent.sim.now,
                        agent=agent._name,
                        request_id=request_id,
                        target=agent._peer_name(pending.target)
                        or str(pending.target),
                        attempt=pending.tried,
                    )
                )
            delivered = agent._send_best_effort(
                Message(
                    MessageKind.RESERVE,
                    agent._endpoint,
                    pending.target,
                    payload=pending.envelope,
                )
            )
            if delivered:
                pending.handle = agent.sim.schedule_in(
                    self.config.reservation_timeout,
                    lambda r=request_id: self._on_reservation_timeout(r),
                    priority=Priority.MONITORING,
                    label=f"resv-timeout-{agent._name}-{request_id}",
                )
                return
            if not pending.candidates:
                self._give_up(request_id, pending)
                return
            pending.target = pending.candidates.pop(0)

    def _give_up(self, request_id: int, pending: _PendingReservation) -> None:
        agent = self.agent
        self._pending.pop(request_id, None)
        agent._stats.gave_up += 1
        if agent._tracer is not None:
            agent._tracer.emit(
                ForwardGiveUp(
                    t=agent.sim.now,
                    agent=agent._name,
                    request_id=request_id,
                )
            )
        agent._absorb_or_fail(pending.envelope)

    def _advance_or_fail(
        self, request_id: int, pending: _PendingReservation
    ) -> None:
        if pending.candidates:
            pending.target = pending.candidates.pop(0)
            self._try_next(request_id, pending)
        else:
            self._give_up(request_id, pending)

    def _on_reservation_timeout(self, request_id: int) -> None:
        agent = self.agent
        pending = self._pending.get(request_id)
        if pending is None or not agent._active:
            return
        # The silent target is presumed dead or partitioned; forget its
        # advertised record so matchmaking stops preferring it.
        agent._registry.pop(pending.target, None)
        agent._registry_time.pop(pending.target, None)
        self._advance_or_fail(request_id, pending)

    def handle_message(self, message: Message) -> bool:
        if message.kind is MessageKind.RESERVE:
            self._on_reserve(message)
            return True
        if message.kind is MessageKind.CONFIRM:
            self._on_confirm(message)
            return True
        if message.kind is MessageKind.REJECT:
            self._on_reject(message)
            return True
        if message.kind is MessageKind.RELEASE:
            self._on_release(message)
            return True
        return False

    def _expire_windows(self, now: float) -> None:
        """Lazily release windows whose end passed unconsumed (the
        booker's forward was lost, or it absorbed the request elsewhere)."""
        agent = self.agent
        expired = [
            rid
            for rid, (_, _, end) in self._bookings.items()
            if end < now - _EPS
        ]
        for rid in expired:
            booker, _, _ = self._bookings.pop(rid)
            if agent._tracer is not None:
                agent._tracer.emit(
                    ReservationReleased(
                        t=now,
                        agent=agent._name,
                        request_id=rid,
                        booker=agent._peer_name(booker) or str(booker),
                        reason="expired",
                    )
                )

    def _on_reserve(self, message: Message) -> None:
        """Book the earliest feasible window, or REJECT."""
        envelope = message.payload
        agent = self.agent
        now = agent.sim.now
        request_id = envelope.request_id
        self._expire_windows(now)
        if request_id in self._bookings:
            # Retransmitted RESERVE for a window already held: re-confirm.
            _, start, end = self._bookings[request_id]
            agent._send_best_effort(
                Message(
                    MessageKind.CONFIRM,
                    agent._endpoint,
                    message.sender,
                    payload=ReservationGrant(request_id, start, end),
                )
            )
            return
        info = agent.service_info()
        match = match_request(
            envelope.request, info, agent._evaluator, agent._catalogue, now
        )
        if not match.supported:
            agent._send_best_effort(
                Message(
                    MessageKind.REJECT,
                    agent._endpoint,
                    message.sender,
                    payload=request_id,
                )
            )
            return
        base = max(info.freetime, now)
        duration = match.eta - base
        start = base
        for _booker, _start, booked_end in self._bookings.values():
            if booked_end > start:
                start = booked_end
        end = start + duration
        if end > envelope.request.deadline + _EPS:
            agent._send_best_effort(
                Message(
                    MessageKind.REJECT,
                    agent._endpoint,
                    message.sender,
                    payload=request_id,
                )
            )
            return
        self._bookings[request_id] = (message.sender, start, end)
        if agent._tracer is not None:
            agent._tracer.emit(
                ReservationBooked(
                    t=now,
                    agent=agent._name,
                    request_id=request_id,
                    booker=agent._peer_name(message.sender)
                    or str(message.sender),
                    start=start,
                    end=end,
                )
            )
        agent._send_best_effort(
            Message(
                MessageKind.CONFIRM,
                agent._endpoint,
                message.sender,
                payload=ReservationGrant(request_id, start, end),
            )
        )

    def _on_confirm(self, message: Message) -> None:
        grant = message.payload
        agent = self.agent
        pending = self._pending.get(grant.request_id)
        if pending is None or pending.target != message.sender:
            # Stale grant — a previous incarnation's reservation, or the
            # requester moved on after a timeout: relinquish the window
            # so the holder's capacity frees immediately.
            agent._send_best_effort(
                Message(
                    MessageKind.RELEASE,
                    agent._endpoint,
                    message.sender,
                    payload=grant.request_id,
                )
            )
            return
        if pending.handle is not None:
            pending.handle.cancel()
        del self._pending[grant.request_id]
        agent._stats.forwarded += 1
        delivered = agent.forward_request(
            pending.envelope,
            pending.hops,
            pending.target,
            exclude=pending.exclude,
            attempt=pending.attempt,
            prev_target=pending.prev_target,
        )
        if not delivered:
            agent._absorb_or_fail(pending.envelope)

    def _on_reject(self, message: Message) -> None:
        request_id = message.payload
        pending = self._pending.get(request_id)
        if pending is None or pending.target != message.sender:
            return
        if pending.handle is not None:
            pending.handle.cancel()
        self._advance_or_fail(request_id, pending)

    def _on_release(self, message: Message) -> None:
        agent = self.agent
        request_id = message.payload
        entry = self._bookings.pop(request_id, None)
        if entry is None:
            return
        if agent._tracer is not None:
            agent._tracer.emit(
                ReservationReleased(
                    t=agent.sim.now,
                    agent=agent._name,
                    request_id=request_id,
                    booker=agent._peer_name(entry[0]) or str(entry[0]),
                    reason="declined",
                )
            )

    def on_peer_dead(self, peer: "Agent") -> None:
        """Free every window the confirmed-dead peer booked here."""
        agent = self.agent
        dead = [
            rid
            for rid, (booker, _, _) in self._bookings.items()
            if booker == peer.endpoint
        ]
        for rid in dead:
            booker, _, _ = self._bookings.pop(rid)
            if agent._tracer is not None:
                agent._tracer.emit(
                    ReservationReleased(
                        t=agent.sim.now,
                        agent=agent._name,
                        request_id=rid,
                        booker=agent._peer_name(booker) or str(booker),
                        reason="death",
                    )
                )

    def on_deactivate(self) -> None:
        """A restarted agent must honour nothing from its previous
        incarnation: cancel CONFIRM waits, void every held window."""
        agent = self.agent
        for pending in self._pending.values():
            if pending.handle is not None:
                pending.handle.cancel()
        self._pending.clear()
        for rid, (booker, _, _) in self._bookings.items():
            if agent._tracer is not None:
                agent._tracer.emit(
                    ReservationReleased(
                        t=agent.sim.now,
                        agent=agent._name,
                        request_id=rid,
                        booker=agent._peer_name(booker) or str(booker),
                        reason="crash",
                    )
                )
        self._bookings.clear()

    def snapshot_state(self) -> dict:
        from repro.checkpoint.codec import encode_endpoint, encode_envelope

        return {
            # Both maps in insertion order: release emission order and
            # window-placement history must survive the round-trip.
            "pending": [
                {
                    "request_id": request_id,
                    "envelope": encode_envelope(p.envelope),
                    "hops": p.hops,
                    "exclude": [encode_endpoint(ep) for ep in sorted(p.exclude)],
                    "attempt": p.attempt,
                    "prev_target": (
                        None
                        if p.prev_target is None
                        else encode_endpoint(p.prev_target)
                    ),
                    "target": encode_endpoint(p.target),
                    "candidates": [
                        encode_endpoint(ep) for ep in p.candidates
                    ],
                    "tried": p.tried,
                    "event": p.handle.descriptor() if p.handle is not None else None,
                }
                for request_id, p in self._pending.items()
            ],
            "bookings": [
                [request_id, encode_endpoint(booker), start, end]
                for request_id, (booker, start, end) in self._bookings.items()
            ],
        }

    def restore_state(self, state: dict, *, applications) -> None:
        from repro.checkpoint.codec import decode_endpoint, decode_envelope

        for pending in self._pending.values():
            if pending.handle is not None:
                pending.handle.cancel()
        self._pending = {}
        for raw in state.get("pending", []):
            request_id = int(raw["request_id"])
            handle = (
                None
                if raw["event"] is None
                else self.agent.sim.restore_event(
                    raw["event"],
                    lambda r=request_id: self._on_reservation_timeout(r),
                )
            )
            self._pending[request_id] = _PendingReservation(
                envelope=decode_envelope(raw["envelope"], applications),
                hops=int(raw["hops"]),
                exclude=frozenset(
                    decode_endpoint(ep) for ep in raw["exclude"]
                ),
                attempt=int(raw["attempt"]),
                prev_target=(
                    None
                    if raw["prev_target"] is None
                    else decode_endpoint(raw["prev_target"])
                ),
                target=decode_endpoint(raw["target"]),
                candidates=[decode_endpoint(ep) for ep in raw["candidates"]],
                tried=int(raw["tried"]),
                handle=handle,
            )
        self._bookings = {
            int(rid): (decode_endpoint(booker), float(start), float(end))
            for rid, booker, start, end in state.get("bookings", [])
        }


_POLICY_CLASSES = {
    "eq10": Eq10Policy,
    "auction": AuctionPolicy,
    "reservation": ReservationPolicy,
}


def make_policy(config: GlobalPolicyConfig, agent: "Agent") -> GlobalPolicy:
    """Instantiate the policy *config* selects, bound to *agent*."""
    return _POLICY_CLASSES[config.kind](config, agent)
