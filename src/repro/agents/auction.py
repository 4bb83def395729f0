"""Contract-net dispatch: the ``auction`` global policy (arXiv:1803.04385).

The receiving agent opens a CFP round over its neighbours, collects
sealed completion-time bids, and awards the request to the deterministic
best bid when all bids are in or a bounded bid timeout closes the round.
:func:`repro.agents.policy.make_policy` imports this module only for a
grid that selects the policy; the determinism rules it obeys are listed
in :mod:`repro.agents.policy` and docs/policies.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, Optional, Set, Tuple

from repro.agents.discovery import MAX_HOPS
from repro.agents.matchmaking import match_request
from repro.agents.policy import GlobalPolicy, GlobalPolicyConfig
from repro.net.message import Endpoint, Message, MessageKind
from repro.net.payloads import BidInfo, RequestEnvelope
from repro.sim.events import Event, Priority

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.agents.agent import Agent

__all__ = ["AuctionPolicy"]

#: Slack for deadline comparisons of bid estimates.
_EPS = 1e-9


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
            from repro.obs.records import AuctionOpened

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
            from repro.obs.records import AuctionBid

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
                from repro.obs.records import AuctionSettled

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
            from repro.obs.records import AuctionSettled

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
                from repro.obs.records import AuctionSettled

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
