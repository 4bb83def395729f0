"""The service-discovery decision procedure (§3.1, §3.2).

"Within each agent, its own service is evaluated first.  If the requirement
can be met locally, the discovery ends successfully.  Otherwise service
information from both upper and lower agents is evaluated and the request
dispatched to the agent which is able to provide the best
requirement/resource match.  If no service can meet the requirement, the
request is submitted to the upper agent.  When the head of the hierarchy is
reached and the available service is still not found, the discovery
terminates unsuccessfully."

:func:`discover` is a pure function from the matchmaking results an agent
has gathered to a routing decision, so the policy is testable without any
messaging machinery.  Two pragmatic guards extend the paper's procedure
(see DESIGN.md §4):

* a **hop budget** — advertised freetimes are stale, so two agents could in
  principle forward a request back and forth; past :data:`MAX_HOPS` the request
  is absorbed by the best-effort rule below rather than forwarded again;
* **best-effort termination** — the paper's experiments execute all 600
  requests, so "terminates unsuccessfully" cannot mean the task is lost.
  In the default (non-strict) mode the head dispatches to the service with
  the earliest expected completion even though it misses the deadline;
  strict mode rejects instead.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.net.message import Endpoint
from repro.agents.matchmaking import MatchResult

__all__ = ["DiscoveryConfig", "Decision", "DiscoveryOutcome", "discover"]

#: Forwards a request may take before the best-effort rule absorbs it.
MAX_HOPS = 10


@dataclass(frozen=True)
class DiscoveryConfig:
    """Discovery policy knobs.

    ``local_only`` disables the agent-based mechanism entirely: every
    supported request is absorbed by the receiving agent's own scheduler —
    the configuration of the paper's experiments 1 and 2 ("no supporting
    higher-level agent-based mechanism provided").

    ``data_gravity`` extends eq. (10) for workflow tasks: a candidate's
    expected completion is charged the staging time of every input not
    already on that resource (``size / bandwidth``), pulling children
    toward their parents' outputs.  Off by
    default — independent tasks carry no inputs, so the term is zero for
    them either way, but the flag keeps even the workflow code path
    byte-identical when disabled.
    """

    strict: bool = False
    local_only: bool = False
    data_gravity: bool = False


class Decision(enum.Enum):
    """What an agent does with a request."""

    LOCAL = "local"      # submit to the agent's own scheduler
    FORWARD = "forward"  # dispatch to another agent
    REJECT = "reject"    # discovery terminated unsuccessfully (strict mode)


@dataclass(frozen=True)
class DiscoveryOutcome:
    """The routing decision plus its justification (for tracing)."""

    decision: Decision
    target: Optional[Endpoint]
    estimate: float
    reason: str


def _best_effort_key(kv):
    """Deterministic order for best-effort candidates: ``(eta, is_remote, endpoint)``.

    Lower ETA wins; on an exact ETA tie the local service (``None`` key)
    beats any remote one, and remote ties break on ``(address, port)``.
    The endpoint component is only compared between two *remote*
    candidates — at most one candidate is local — so ``None`` never needs
    a sort stand-in.
    """
    endpoint, match = kv
    is_remote = endpoint is not None
    endpoint_key = (endpoint.address, endpoint.port) if is_remote else ("", 0)
    return (match.eta, is_remote, endpoint_key)


def discover(
    local: MatchResult,
    neighbours: Mapping[Endpoint, MatchResult],
    parent: Optional[Endpoint],
    hops: int,
    config: DiscoveryConfig = DiscoveryConfig(),
) -> DiscoveryOutcome:
    """Decide where a request goes, given fresh local and advertised matches.

    Parameters
    ----------
    local:
        Matchmaking against the agent's own scheduler (always fresh).
    neighbours:
        Matchmaking against the last advertised service information of each
        neighbouring agent (children and parent), keyed by agent endpoint.
    parent:
        The upper agent's endpoint, or ``None`` at the hierarchy head.
    hops:
        How many times the request has been forwarded already.
    """
    if config.local_only:
        if local.supported:
            return DiscoveryOutcome(
                Decision.LOCAL, None, local.eta, "agent mechanism disabled"
            )
        return DiscoveryOutcome(
            Decision.REJECT, None, float("inf"), "environment unsupported locally"
        )

    # 1. Own service first.
    if local.supported and local.meets_deadline:
        return DiscoveryOutcome(
            Decision.LOCAL, None, local.eta, "local service meets deadline"
        )

    supported = {
        ep: match for ep, match in neighbours.items() if match.supported
    }

    # Hop budget exhausted: absorb the request here if at all possible.
    if hops >= MAX_HOPS:
        if local.supported:
            return DiscoveryOutcome(
                Decision.LOCAL, None, local.eta, "hop budget exhausted"
            )
        if supported:
            ep, match = min(supported.items(), key=lambda kv: (kv[1].eta, kv[0]))
            return DiscoveryOutcome(
                Decision.FORWARD, ep, match.eta, "hop budget exhausted"
            )
        return DiscoveryOutcome(
            Decision.REJECT, None, float("inf"), "hop budget exhausted, no service"
        )

    # 2. Best advertised match that meets the deadline.
    meeting = {ep: m for ep, m in supported.items() if m.meets_deadline}
    if meeting:
        ep, match = min(meeting.items(), key=lambda kv: (kv[1].eta, kv[0]))
        return DiscoveryOutcome(
            Decision.FORWARD, ep, match.eta, "advertised service meets deadline"
        )

    # 3. Escalate to the upper agent.
    if parent is not None:
        parent_match = neighbours.get(parent)
        estimate = parent_match.eta if parent_match is not None else float("inf")
        return DiscoveryOutcome(
            Decision.FORWARD, parent, estimate, "escalate to upper agent"
        )

    # 4. Hierarchy head, nothing meets the deadline.
    if config.strict:
        return DiscoveryOutcome(
            Decision.REJECT, None, float("inf"), "no service meets deadline (strict)"
        )
    candidates: dict[Optional[Endpoint], MatchResult] = dict(supported)
    if local.supported:
        candidates[None] = local
    if not candidates:
        return DiscoveryOutcome(
            Decision.REJECT, None, float("inf"), "no service supports environment"
        )
    best_ep, best_match = min(candidates.items(), key=_best_effort_key)
    if best_ep is None:
        return DiscoveryOutcome(
            Decision.LOCAL, None, best_match.eta, "best effort at hierarchy head"
        )
    return DiscoveryOutcome(
        Decision.FORWARD, best_ep, best_match.eta, "best effort at hierarchy head"
    )
