"""Typed messages exchanged between agents, portals, and schedulers.

The original system spoke XML over TCP between Java agents; the message
*types* here mirror the protocol the paper describes: execution requests
travel down the discovery path (Fig. 6), results return to the user, and
service advertisements flow between neighbouring agents (Fig. 5) either
unsolicited (push) or in reply to a pull.
"""

from __future__ import annotations

import enum
from typing import Any, NamedTuple

from repro.errors import TransportError

__all__ = ["Endpoint", "MessageKind", "Message"]


class _EndpointFields(NamedTuple):
    address: str
    port: int


class Endpoint(_EndpointFields):
    """A network identity: the (address, port) tuple of Figs. 5–6.

    Tuple-backed and immutable: hashing, equality and ordering are those
    of the plain ``(address, port)`` tuple and run in C, so every dict,
    set and sorted order keyed by endpoints is the tuple's.  Only
    construction runs Python code, to validate.
    """

    __slots__ = ()

    def __new__(cls, address: str, port: int) -> "Endpoint":
        if not address:
            raise TransportError("endpoint address must be non-empty")
        if not (0 < port < 65536):
            raise TransportError(f"endpoint port out of range: {port}")
        return tuple.__new__(cls, (address, port))

    def __str__(self) -> str:
        return f"{self.address}:{self.port}"


class MessageKind(enum.Enum):
    """Protocol message types.

    Each kind carries ``label``, the label of the events that deliver its
    messages one at a time: one interned string per kind, never one per
    message (the labels are observational only; ``sim.event`` records are
    non-canonical; a transport batch's one event is ``deliver-batch``).
    It is a plain attribute so a send needs no Python-level enum hash to
    find it.
    """

    REQUEST = "request"      # an execution request (Fig. 6) seeking a resource
    RESULT = "result"        # execution outcome returned to the submitter
    ADVERTISE = "advertise"  # service information (Fig. 5), pushed or pulled
    PULL = "pull"            # ask a neighbour for its current service info
    ACK = "ack"              # receipt of a REQUEST (resilience layer only)
    HEARTBEAT = "heartbeat"  # liveness beacon between linked agents (membership)
    ADOPT = "adopt"          # orphaned agent asks a new parent to take it in
    ADOPTED = "adopted"      # adopter's confirmation closing the re-parenting
    CFP = "cfp"              # call-for-proposals opening an auction (policy layer)
    BID = "bid"              # sealed completion-time bid answering a CFP
    RESERVE = "reserve"      # ask a neighbour to book a future freetime window
    CONFIRM = "confirm"      # reservation granted (carries the booked window)
    REJECT = "reject"        # reservation declined (no feasible window)
    RELEASE = "release"      # booker relinquishes a previously granted window
    TRANSFER = "transfer"    # staged-in workflow input arriving at a cluster

    def __init__(self, value: str) -> None:
        self.label = f"deliver-{value}"


class Message(NamedTuple):
    """One transported message.

    ``payload`` is kind-specific: a request record, a task summary, or a
    service-information record.  ``hops`` counts discovery forwards so a
    request cannot circulate indefinitely.  A message carries no identity
    of its own: the transport lists its in-flight deliveries by their
    events' sequence numbers, which the engine assigns per run.

    Tuple-backed and immutable: a scaled grid sends a message per PULL and
    per ADVERTISE, so construction is one tuple allocation, field reads are
    C descriptors, and there is no per-instance dict.
    """

    kind: MessageKind
    sender: Endpoint
    recipient: Endpoint
    payload: Any
    hops: int = 0
