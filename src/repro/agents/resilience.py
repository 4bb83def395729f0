"""Resilience policy knobs for agents and portals (Experiment 4).

The paper's protocol is fire-and-forget: a REQUEST forwarded to a
neighbour either arrives or is silently lost, and advertised service
records live in the registry until overwritten.  On a benign LAN that is
fine; under injected loss and churn (:mod:`repro.net.faults`) it loses
tasks.  :class:`ResilienceConfig` gates the counter-measures:

* **Acknowledgement + retry** (``enabled``): every received REQUEST is
  acknowledged to its sender; senders arm a sim-timer per forward and,
  on timeout, retry with exponential backoff (:func:`timeout_for`),
  excluding already-tried targets so the request re-routes to the
  next-best neighbour (or is absorbed/rejected once :data:`MAX_RETRIES`
  is exhausted).
* **Registry TTL** (``registry_ttl``): advertised
  :class:`~repro.net.payloads.ServiceInfo` older than the TTL is
  ignored by matchmaking and dropped from the registry, so a crashed
  neighbour stops attracting forwards one TTL after its last advert.

Every knob defaults to *off* — a default-constructed config reproduces the
seed protocol byte-for-byte (property-tested), which is what keeps all
pre-existing experiments valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ValidationError

__all__ = ["ResilienceConfig", "timeout_for"]

#: Virtual seconds to wait for a REQUEST acknowledgement before the first
#: retry.
ACK_TIMEOUT = 3.0
#: Retries per request per station; after the last one the request is
#: absorbed locally when possible, else rejected.
MAX_RETRIES = 3
#: Timeout multiplier per attempt (see :func:`timeout_for`).
BACKOFF_BASE = 2.0


def timeout_for(attempt: int) -> float:
    """The ack timeout for *attempt* (0-based), with backoff applied."""
    return ACK_TIMEOUT * BACKOFF_BASE ** attempt


@dataclass(frozen=True)
class ResilienceConfig:
    """Acknowledgement, retry, and registry-freshness policy.

    Parameters
    ----------
    enabled:
        Master switch for the ACK/retry machinery.  ``False`` (default)
        sends no ACKs, arms no timers, and is byte-identical to the seed
        protocol.
    registry_ttl:
        Age in virtual seconds beyond which an advertised service record
        is ignored and dropped.  ``None`` (default) never expires —
        the seed behaviour.  Applies even when ``enabled`` is false (it is
        a discovery-freshness knob, not an ACK knob).
    """

    enabled: bool = False
    registry_ttl: Optional[float] = None

    def __post_init__(self) -> None:
        if self.registry_ttl is not None and self.registry_ttl <= 0:
            raise ValidationError(
                f"registry_ttl must be > 0 or None, got {self.registry_ttl}"
            )
