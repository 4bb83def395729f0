"""Advance reservations: the ``reservation`` global policy (arXiv:1106.5310).

Instead of dispatching immediately, the agent asks the best advertised
neighbour to *book* a future freetime window; the request is forwarded
only once a CONFIRM arrives, and booked windows are released on
consumption, decline, expiry, or the booker's confirmed death.
:func:`repro.agents.policy.make_policy` imports this module only for a
grid that selects the policy; the determinism rules it obeys are listed
in :mod:`repro.agents.policy` and docs/policies.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Tuple

from repro.agents.matchmaking import match_request
from repro.agents.policy import GlobalPolicy, GlobalPolicyConfig
from repro.net.message import Endpoint, Message, MessageKind
from repro.net.payloads import RequestEnvelope, ReservationGrant
from repro.sim.events import Event, Priority

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.agents.agent import Agent

__all__ = ["ReservationPolicy"]

#: Slack for window feasibility comparisons against deadlines.
_EPS = 1e-9


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
                from repro.obs.records import ReservationReleased

                agent._tracer.emit(
                    ReservationReleased(
                        t=now,
                        agent=agent._name,
                        request_id=request_id,
                        booker=agent.peer_name(booking[0]) or str(booking[0]),
                        reason="consumed",
                    )
                )
            agent._submit_locally(envelope)
            return
        if request_id in self._pending:
            # A duplicate delivery slipped past the dedup layer while a
            # reservation is already in flight; that attempt owns it.
            return
        local_match = self._local_first(envelope, hops)
        if local_match is None:
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
                from repro.obs.records import ReservationRequested

                agent._tracer.emit(
                    ReservationRequested(
                        t=agent.sim.now,
                        agent=agent._name,
                        request_id=request_id,
                        target=agent.peer_name(pending.target)
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
            from repro.obs.records import ForwardGiveUp

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
                from repro.obs.records import ReservationReleased

                agent._tracer.emit(
                    ReservationReleased(
                        t=now,
                        agent=agent._name,
                        request_id=rid,
                        booker=agent.peer_name(booker) or str(booker),
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
            from repro.obs.records import ReservationBooked

            agent._tracer.emit(
                ReservationBooked(
                    t=now,
                    agent=agent._name,
                    request_id=request_id,
                    booker=agent.peer_name(message.sender)
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
            from repro.obs.records import ReservationReleased

            agent._tracer.emit(
                ReservationReleased(
                    t=agent.sim.now,
                    agent=agent._name,
                    request_id=request_id,
                    booker=agent.peer_name(entry[0]) or str(entry[0]),
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
                from repro.obs.records import ReservationReleased

                agent._tracer.emit(
                    ReservationReleased(
                        t=agent.sim.now,
                        agent=agent._name,
                        request_id=rid,
                        booker=agent.peer_name(booker) or str(booker),
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
                from repro.obs.records import ReservationReleased

                agent._tracer.emit(
                    ReservationReleased(
                        t=agent.sim.now,
                        agent=agent._name,
                        request_id=rid,
                        booker=agent.peer_name(booker) or str(booker),
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
