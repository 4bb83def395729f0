"""Protocol payloads: service records, request envelopes, results.

These are the bodies of the ADVERTISE / REQUEST / RESULT messages.  They
live in :mod:`repro.net`, beside the messages that carry them, so the
transport and checkpoint codecs need no agent-layer import.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.errors import ValidationError
from repro.net.message import Endpoint
from repro.tasks.task import Environment, TaskRequest

__all__ = [
    "ServiceInfo",
    "RequestEnvelope",
    "TaskResult",
    "KinInfo",
    "BidInfo",
    "ReservationGrant",
    "TransferPayload",
]

#: Writes one field of a frozen record (bypassing its ``__setattr__``).
_set_field = object.__setattr__


@dataclass(frozen=True)
class ServiceInfo:
    """One resource's advertised service description (Fig. 5).

    ``freetime`` is an absolute virtual time; a value in the past simply
    means the resource is free now (consumers clamp to their own clock).
    """

    agent_endpoint: Endpoint
    scheduler_endpoint: Endpoint
    hardware_type: str
    nproc: int
    environments: Tuple[Environment, ...]
    freetime: float

    def __post_init__(self) -> None:
        if not self.hardware_type:
            raise ValidationError("hardware_type must be non-empty")
        if self.nproc < 1:
            raise ValidationError(f"nproc must be >= 1, got {self.nproc}")
        if not self.environments:
            raise ValidationError("service must list at least one environment")

    def supports(self, environment: Environment) -> bool:
        """Whether the resource provides *environment*."""
        return environment in self.environments

    def with_freetime(self, freetime: float) -> "ServiceInfo":
        """A copy carrying an updated freetime estimate.

        The other fields come from a record the constructor has already
        validated, so the copy takes them as they are and only
        ``freetime`` is new: neither ``__init__`` nor ``__post_init__``
        runs (the constructor keeps every check).  The fields are set one
        by one rather than through ``__dict__``, which would give every
        record its own attribute dict, 64 bytes larger.
        """
        copy = object.__new__(ServiceInfo)
        _set_field(copy, "agent_endpoint", self.agent_endpoint)
        _set_field(copy, "scheduler_endpoint", self.scheduler_endpoint)
        _set_field(copy, "hardware_type", self.hardware_type)
        _set_field(copy, "nproc", self.nproc)
        _set_field(copy, "environments", self.environments)
        _set_field(copy, "freetime", freetime)
        return copy

    # -------------------------------------------------------------------- XML

    def to_xml(self) -> str:
        """Render as the Fig. 5 document."""
        from repro.net.xmlio import service_info_to_xml

        return service_info_to_xml(
            {
                "agent_address": self.agent_endpoint.address,
                "agent_port": self.agent_endpoint.port,
                "local_address": self.scheduler_endpoint.address,
                "local_port": self.scheduler_endpoint.port,
                "type": self.hardware_type,
                "nproc": self.nproc,
                "environments": [e.value for e in self.environments],
                "freetime": self.freetime,
            }
        )

    @classmethod
    def from_xml(cls, document: str) -> "ServiceInfo":
        """Parse a Fig. 5 document."""
        from repro.net.xmlio import parse_service_info

        fields = parse_service_info(document)
        return cls(
            agent_endpoint=Endpoint(fields["agent_address"], fields["agent_port"]),
            scheduler_endpoint=Endpoint(
                fields["local_address"], fields["local_port"]
            ),
            hardware_type=fields["type"],
            nproc=fields["nproc"],
            environments=tuple(Environment.parse(e) for e in fields["environments"]),
            freetime=fields["freetime"],
        )


@dataclass(frozen=True)
class RequestEnvelope:
    """A request travelling the grid, with routing bookkeeping (Fig. 6).

    ``trace`` records the stations visited — the experiments use it to
    study dispatch behaviour; ``reply_to`` is the portal endpoint results
    return to.
    """

    request_id: int
    request: TaskRequest
    reply_to: Endpoint
    trace: Tuple[str, ...] = ()

    def visited(self, station: str) -> "RequestEnvelope":
        """A copy with *station* appended to the trace."""
        return replace(self, trace=self.trace + (station,))


@dataclass(frozen=True)
class KinInfo:
    """Next-of-kin knowledge a coordinator piggybacks on child heartbeats.

    The paper's agents are "only aware of neighbouring agents", so an
    orphaned subtree would have no repair target when its coordinator dies.
    Each parent→child HEARTBEAT therefore carries the two hops of context
    self-healing needs: the sender's own parent (the child's *grandparent*)
    and the sender's full children list in its canonical order (the child's
    *siblings*, eldest first).  Both are (name, endpoint) pairs.
    """

    parent: str
    grandparent: Optional[Tuple[str, Endpoint]]
    siblings: Tuple[Tuple[str, Endpoint], ...]

    def eldest(self) -> Optional[Tuple[str, Endpoint]]:
        """The first sibling in the parent's children order, if any."""
        return self.siblings[0] if self.siblings else None


@dataclass(frozen=True)
class BidInfo:
    """A sealed completion-time bid answering an auction CFP.

    ``eta`` is the bidder's eq.-(10) completion estimate at bidding time;
    ``supported`` is ``False`` when the bidder cannot run the request at
    all (it still answers, so the auctioneer's pending set drains without
    waiting out the bid timeout).
    """

    request_id: int
    eta: float
    supported: bool


@dataclass(frozen=True)
class ReservationGrant:
    """A booked freetime window confirming an advance reservation.

    ``start``/``end`` bound the slot the granting agent holds for
    ``request_id`` until the booker's forwarded REQUEST consumes it, a
    RELEASE relinquishes it, or the window expires.
    """

    request_id: int
    start: float
    end: float


@dataclass(frozen=True)
class TransferPayload:
    """One workflow input staging in: a parent's output moving to a cluster.

    The consuming agent sends this to **itself** through the transport
    with the serialisation delay (``size / bandwidth``) as extra latency,
    so data movement rides the same delivery, fault, and checkpoint
    machinery as every protocol message.  On arrival the input is marked
    present for the gated local task ``task_id``.
    """

    workflow_id: int
    node: str      # the consuming (child) node's name
    parent: str    # the producing node's name
    source: str    # resource name the output is pulled from
    size: float    # data units moved
    task_id: int   # the local task id awaiting this input


@dataclass(frozen=True)
class TaskResult:
    """Execution outcome posted back to the submitter."""

    request_id: int
    application: str
    success: bool
    resource_name: str = ""
    submit_time: float = 0.0
    start_time: float = 0.0
    completion_time: float = 0.0
    deadline: float = 0.0
    trace: Tuple[str, ...] = ()

    @property
    def met_deadline(self) -> bool:
        """Whether the task finished by its deadline."""
        return self.success and self.completion_time <= self.deadline
