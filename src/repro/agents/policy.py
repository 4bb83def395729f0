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
:class:`~repro.agents.auction.AuctionPolicy`
    Contract-net dispatch (arXiv:1803.04385): the receiving agent opens
    a CFP round over its neighbours, collects sealed completion-time
    bids, and awards the request to the deterministic best bid when all
    bids are in or a bounded bid timeout closes the round.
:class:`~repro.agents.reservation.ReservationPolicy`
    Advance reservations (arXiv:1106.5310): instead of dispatching
    immediately, the agent asks the best advertised neighbour to *book*
    a future freetime window; the request is forwarded only once a
    CONFIRM arrives, and booked windows are released on consumption,
    decline, expiry, or the booker's confirmed death.

:func:`make_policy` imports the auction or reservation module only for a
grid that selects it, so a default run never loads either.

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

from dataclasses import dataclass
from typing import TYPE_CHECKING, FrozenSet, Optional, Tuple

from repro.agents.discovery import Decision, discover
from repro.agents.matchmaking import match_request
from repro.errors import ValidationError
from repro.net.message import Endpoint, Message
from repro.net.payloads import RequestEnvelope

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.agents.agent import Agent

__all__ = [
    "POLICY_KINDS",
    "GlobalPolicyConfig",
    "GlobalPolicy",
    "Eq10Policy",
    "make_policy",
]

#: The registered policy kinds, in tournament order.
POLICY_KINDS: Tuple[str, ...] = ("eq10", "auction", "reservation")

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
            from repro.obs.records import DiscoveryEvaluated

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
                from repro.obs.records import ForwardGiveUp

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


def make_policy(config: GlobalPolicyConfig, agent: "Agent") -> GlobalPolicy:
    """Instantiate the policy *config* selects, bound to *agent*."""
    if config.kind == "auction":
        from repro.agents.auction import AuctionPolicy

        return AuctionPolicy(config, agent)
    if config.kind == "reservation":
        from repro.agents.reservation import ReservationPolicy

        return ReservationPolicy(config, agent)
    return Eq10Policy(config, agent)
