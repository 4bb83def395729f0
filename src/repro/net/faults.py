"""Deterministic fault injection for the message transport (Experiment 4).

The paper's agent hierarchy (§3) assumes a benign LAN: agents stay up and
every message is delivered.  This module injects the failures a deployed
grid would face — message loss, latency jitter, timed network partitions,
and agent churn — while keeping every run exactly replayable:

* A :class:`FaultPlan` owns its **own** seeded RNG stream (created from the
  experiment's :class:`~repro.utils.rng.RngRegistry` under the
  ``"fault-injection"`` name).  The scheduler/GA streams are never touched,
  so a faulty run perturbs *what the grid sees*, not *how it decides*.
* The plan draws from that stream **only when a draw can change the
  outcome**: with every probability at exactly zero and no jitter, a plan
  consumes no randomness and the transport behaves byte-identically to a
  run with no plan installed at all (property-tested).
* Partition windows are purely clock-driven — no randomness — so a given
  plan drops exactly the same crossings on every replay.

:class:`ChurnSchedule` is the agent-level counterpart: a precomputed list
of crash/restart times that the simulation engine executes by calling
``Agent.deactivate()`` / ``Agent.reactivate()``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.net.message import Endpoint, Message

__all__ = [
    "LinkFault",
    "PartitionWindow",
    "StragglerFault",
    "FaultPlanSpec",
    "FaultVerdict",
    "FaultPlan",
    "ChurnSpec",
    "ChurnEvent",
    "ChurnSchedule",
]

#: Name of the portal in fault-plan specs (endpoints are resolved by name).
PORTAL_NAME = "portal"


def _check_probability(value: float, name: str) -> float:
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must be in [0, 1], got {value}")
    return float(value)


@dataclass(frozen=True)
class LinkFault:
    """A per-link drop probability overriding the plan-wide default.

    ``src``/``dst`` are *names* (agent names, or ``"portal"``); the live
    plan resolves them to endpoints when installed on a built grid.  The
    override is directional: ``LinkFault("S1", "S2", 1.0)`` black-holes
    S1→S2 sends while S2→S1 still follows the plan default.
    """

    src: str
    dst: str
    drop_probability: float

    def __post_init__(self) -> None:
        if not self.src or not self.dst:
            raise ValidationError("link fault endpoints must be non-empty names")
        _check_probability(self.drop_probability, "link drop_probability")


@dataclass(frozen=True)
class PartitionWindow:
    """A timed partition: messages crossing the two groups are dropped.

    During ``[start, end)`` any message with its sender in one group and
    its recipient in the other is dropped — both directions, no randomness.
    Messages within a group (or touching neither group) are unaffected.
    """

    start: float
    end: float
    group_a: Tuple[str, ...]
    group_b: Tuple[str, ...]

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValidationError(
                f"partition window end {self.end} must be after start {self.start}"
            )
        if not self.group_a or not self.group_b:
            raise ValidationError("partition groups must be non-empty")
        if set(self.group_a) & set(self.group_b):
            raise ValidationError("partition groups must be disjoint")


@dataclass(frozen=True)
class StragglerFault:
    """A grey failure: one node that is *slow*, not dead.

    ``node`` is an agent name.  Two multiplicative degradations apply:

    * **response delay** — every message the node sends arrives
      ``uniform(0.5, 1.5) × response_delay`` seconds late (drawn per send
      from the fault RNG stream).  Heartbeats straggle with everything
      else, which is exactly what forces the failure detector to
      distinguish slow from dead.
    * **service factor** — tasks *executing* on the node's resource run
      ``service_factor ×`` slower than their PACE prediction (applied via
      the execution engine's background-load hook), so schedules built
      from clean predictions quietly miss deadlines.
    """

    node: str
    response_delay: float = 0.0
    service_factor: float = 1.0

    def __post_init__(self) -> None:
        if not self.node:
            raise ValidationError("straggler node must be a non-empty name")
        if self.response_delay < 0:
            raise ValidationError(
                f"response_delay must be >= 0, got {self.response_delay}"
            )
        if self.service_factor < 1.0:
            raise ValidationError(
                f"service_factor must be >= 1, got {self.service_factor}"
            )

    @property
    def is_noop(self) -> bool:
        """Whether this straggler cannot affect anything."""
        return self.response_delay == 0.0 and self.service_factor == 1.0


@dataclass(frozen=True)
class FaultPlanSpec:
    """A picklable, seed-free description of the faults to inject.

    The spec travels inside :class:`~repro.experiments.config.ExperimentConfig`
    (it must pickle across the process-parallel fabric); the live
    :class:`FaultPlan` is materialised per run with that run's own RNG
    stream, so a spec is reusable across seeds.
    """

    drop_probability: float = 0.0
    latency_jitter: float = 0.0
    link_faults: Tuple[LinkFault, ...] = ()
    partitions: Tuple[PartitionWindow, ...] = ()
    stragglers: Tuple[StragglerFault, ...] = ()

    def __post_init__(self) -> None:
        _check_probability(self.drop_probability, "drop_probability")
        if self.latency_jitter < 0:
            raise ValidationError(
                f"latency_jitter must be >= 0, got {self.latency_jitter}"
            )
        # Tolerate lists (e.g. parsed from JSON) by normalising to tuples.
        object.__setattr__(self, "link_faults", tuple(self.link_faults))
        object.__setattr__(self, "partitions", tuple(self.partitions))
        object.__setattr__(self, "stragglers", tuple(self.stragglers))
        nodes = [s.node for s in self.stragglers]
        if len(nodes) != len(set(nodes)):
            raise ValidationError("straggler nodes must be distinct")

    @property
    def is_noop(self) -> bool:
        """Whether this plan can never affect a message."""
        return (
            self.drop_probability == 0.0
            and self.latency_jitter == 0.0
            and all(f.drop_probability == 0.0 for f in self.link_faults)
            and not self.partitions
            and all(s.is_noop for s in self.stragglers)
        )

    def service_factor_for(self, node: str) -> float:
        """Execution-slowdown factor for *node* (1.0 when not a straggler).

        Consulted at grid-build time: the runner installs a constant
        background-load profile on the node's local scheduler so its tasks
        run ``factor ×`` slower than predicted.
        """
        for straggler in self.stragglers:
            if straggler.node == node:
                return straggler.service_factor
        return 1.0

    # --------------------------------------------------------------- JSON I/O

    @classmethod
    def from_json(cls, document: str) -> "FaultPlanSpec":
        """Parse a ``--fault-plan`` JSON document.

        Expected shape (all keys optional)::

            {"drop_probability": 0.1,
             "latency_jitter": 0.5,
             "link_faults": [{"src": "S1", "dst": "S2", "drop_probability": 1.0}],
             "partitions": [{"start": 100, "end": 200,
                             "group_a": ["S1"], "group_b": ["S2", "S3"]}],
             "stragglers": [{"node": "S7", "response_delay": 3.0,
                             "service_factor": 2.0}]}
        """
        try:
            raw = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid fault-plan JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValidationError("fault-plan JSON must be an object")
        known = {
            "drop_probability",
            "latency_jitter",
            "link_faults",
            "partitions",
            "stragglers",
        }
        unknown = set(raw) - known
        if unknown:
            raise ValidationError(f"unknown fault-plan keys: {sorted(unknown)}")
        links = tuple(
            LinkFault(
                src=str(e["src"]),
                dst=str(e["dst"]),
                drop_probability=float(e["drop_probability"]),
            )
            for e in raw.get("link_faults", ())
        )
        partitions = tuple(
            PartitionWindow(
                start=float(e["start"]),
                end=float(e["end"]),
                group_a=tuple(str(n) for n in e["group_a"]),
                group_b=tuple(str(n) for n in e["group_b"]),
            )
            for e in raw.get("partitions", ())
        )
        stragglers = tuple(
            StragglerFault(
                node=str(e["node"]),
                response_delay=float(e.get("response_delay", 0.0)),
                service_factor=float(e.get("service_factor", 1.0)),
            )
            for e in raw.get("stragglers", ())
        )
        return cls(
            drop_probability=float(raw.get("drop_probability", 0.0)),
            latency_jitter=float(raw.get("latency_jitter", 0.0)),
            link_faults=links,
            partitions=partitions,
            stragglers=stragglers,
        )


@dataclass(frozen=True)
class FaultVerdict:
    """What the plan decided for one send."""

    drop: bool
    extra_latency: float = 0.0
    reason: str = ""


# The shared "nothing happens" verdict — the overwhelmingly common case.
_DELIVER = FaultVerdict(drop=False)


class FaultPlan:
    """A live fault injector bound to one run's endpoints and RNG stream.

    Parameters
    ----------
    spec:
        The fault description.
    rng:
        The plan's private random stream.  Drawn from **only** when a draw
        can change the outcome (an effective drop probability > 0, or a
        positive jitter), so a zero plan is bit-for-bit inert.
    endpoints:
        Name → endpoint resolution for link faults and partitions (agent
        names plus ``"portal"``).  Names used by the spec but missing here
        raise at construction, not mid-run.

    The plan keeps no tallies: each verdict names its cause, and the
    transport counts the drops (``Transport.fault_dropped_count``).
    """

    def __init__(
        self,
        spec: FaultPlanSpec,
        rng: Optional[np.random.Generator] = None,
        endpoints: Optional[Mapping[str, Endpoint]] = None,
    ) -> None:
        needs_rng = (
            spec.drop_probability > 0.0
            or spec.latency_jitter > 0.0
            or any(f.drop_probability > 0.0 for f in spec.link_faults)
            or any(s.response_delay > 0.0 for s in spec.stragglers)
        )
        if needs_rng and rng is None:
            # Partition-only plans are purely clock-driven and need none.
            raise ValidationError("stochastic fault plans require an rng")
        self._spec = spec
        self._rng = rng
        names = dict(endpoints or {})
        self._link_drop: Dict[Tuple[Endpoint, Endpoint], float] = {}
        for fault in spec.link_faults:
            self._link_drop[
                (self._resolve(names, fault.src), self._resolve(names, fault.dst))
            ] = fault.drop_probability
        self._partitions: List[
            Tuple[float, float, FrozenSet[Endpoint], FrozenSet[Endpoint]]
        ] = [
            (
                window.start,
                window.end,
                frozenset(self._resolve(names, n) for n in window.group_a),
                frozenset(self._resolve(names, n) for n in window.group_b),
            )
            for window in spec.partitions
        ]
        self._straggler_delay: Dict[Endpoint, float] = {
            self._resolve(names, s.node): s.response_delay
            for s in spec.stragglers
            if s.response_delay > 0.0
        }

    @staticmethod
    def _resolve(names: Mapping[str, Endpoint], name: str) -> Endpoint:
        try:
            return names[name]
        except KeyError:
            raise ValidationError(
                f"fault plan names unknown participant {name!r} "
                f"(known: {sorted(names)})"
            ) from None

    def on_send(self, message: Message, now: float) -> FaultVerdict:
        """Decide one send's fate; called by the transport for every message.

        Partition checks run first and consume no randomness; a chance
        drop and jitter draw happen only when their parameters are
        positive, preserving byte-identity for zero plans.
        """
        sender, recipient = message.sender, message.recipient
        for start, end, group_a, group_b in self._partitions:
            if start <= now < end and (
                (sender in group_a and recipient in group_b)
                or (sender in group_b and recipient in group_a)
            ):
                return FaultVerdict(drop=True, reason="partition")
        probability = self._link_drop.get(
            (sender, recipient), self._spec.drop_probability
        )
        if probability > 0.0:
            assert self._rng is not None
            if self._rng.random() < probability:
                return FaultVerdict(drop=True, reason="loss")
        extra = 0.0
        reasons: List[str] = []
        delay = self._straggler_delay.get(sender, 0.0)
        if delay > 0.0:
            assert self._rng is not None
            extra += float(self._rng.uniform(0.5, 1.5)) * delay
            reasons.append("straggler")
        if self._spec.latency_jitter > 0.0:
            assert self._rng is not None
            extra += float(self._rng.uniform(0.0, self._spec.latency_jitter))
            reasons.append("jitter")
        if extra > 0.0:
            return FaultVerdict(drop=False, extra_latency=extra, reason="+".join(reasons))
        return _DELIVER


# ---------------------------------------------------------------------- churn


@dataclass(frozen=True)
class ChurnSpec:
    """A picklable description of agent churn for one run.

    ``rate`` is the fraction of eligible agents that crash exactly once
    during the request phase (0 = no churn, 1 = every eligible agent).
    Crash instants are drawn uniformly inside ``window`` (fractions of the
    request-phase horizon); each crashed agent restarts ``downtime``
    seconds later.  The hierarchy head is excluded by default — losing the
    escalation root turns every measurement into a study of the head, not
    of churn.
    """

    rate: float = 0.0
    downtime: float = 60.0
    window: Tuple[float, float] = (0.1, 0.6)
    exclude_head: bool = True
    #: Which agents may be chosen: ``"any"`` (default, the pre-targeting
    #: behaviour), ``"coordinators"`` (agents with children — the
    #: self-healing stressor), or ``"leaves"`` (agents without children).
    target: str = "any"

    def __post_init__(self) -> None:
        _check_probability(self.rate, "churn rate")
        if self.downtime <= 0:
            raise ValidationError(f"downtime must be > 0, got {self.downtime}")
        lo, hi = self.window
        if not (0.0 <= lo < hi <= 1.0):
            raise ValidationError(f"window must satisfy 0 <= lo < hi <= 1, got {self.window}")
        if self.target not in ("any", "coordinators", "leaves"):
            raise ValidationError(
                f"target must be 'any', 'coordinators' or 'leaves', got {self.target!r}"
            )


@dataclass(frozen=True)
class ChurnEvent:
    """One lifecycle transition the sim engine will execute."""

    time: float
    agent: str
    action: str  # "crash" | "restart"

    def __post_init__(self) -> None:
        if self.action not in ("crash", "restart"):
            raise ValidationError(f"unknown churn action {self.action!r}")
        if self.time < 0:
            raise ValidationError(f"churn event time must be >= 0, got {self.time}")


class ChurnSchedule:
    """A deterministic, pre-drawn sequence of crash/restart events.

    The schedule is generated *before* the run from its own RNG stream
    (``"churn"``), so churn-event times never interleave with — and can
    never perturb — the scheduler or workload streams.
    """

    def __init__(self, events: Sequence[ChurnEvent]) -> None:
        self._events = sorted(events, key=lambda e: (e.time, e.agent, e.action))

    @property
    def crash_count(self) -> int:
        """Number of crash events."""
        return sum(1 for e in self._events if e.action == "crash")

    @property
    def restart_count(self) -> int:
        """Number of restart events."""
        return sum(1 for e in self._events if e.action == "restart")

    def __iter__(self):
        return iter(self._events)

    @classmethod
    def generate(
        cls,
        agent_names: Sequence[str],
        spec: ChurnSpec,
        horizon: float,
        rng: np.random.Generator,
        *,
        head: Optional[str] = None,
        coordinators: Optional[Sequence[str]] = None,
    ) -> "ChurnSchedule":
        """Draw a schedule for *agent_names* over ``[0, horizon]``.

        ``round(rate × eligible)`` distinct agents are chosen (eligible =
        all names minus the head when ``exclude_head``); each receives one
        crash uniformly inside the spec's window and one restart
        ``downtime`` seconds later.  Same ``(names, spec, horizon, stream)``
        → same schedule, independent of everything else in the run.

        When the spec targets ``"coordinators"`` or ``"leaves"``, the
        caller must pass *coordinators* (the names of agents with
        children) and eligibility is further restricted to that role.
        """
        if horizon <= 0:
            raise ValidationError(f"horizon must be > 0, got {horizon}")
        eligible = [n for n in agent_names if not (spec.exclude_head and n == head)]
        if spec.target != "any":
            if coordinators is None:
                raise ValidationError(
                    f"churn target {spec.target!r} requires the coordinator set"
                )
            roles = set(coordinators)
            if spec.target == "coordinators":
                eligible = [n for n in eligible if n in roles]
            else:
                eligible = [n for n in eligible if n not in roles]
        count = int(round(spec.rate * len(eligible)))
        if count == 0:
            return cls([])
        chosen_idx = rng.choice(len(eligible), size=count, replace=False)
        lo, hi = spec.window
        events: List[ChurnEvent] = []
        for idx in sorted(int(i) for i in chosen_idx):
            name = eligible[idx]
            crash_at = float(rng.uniform(lo * horizon, hi * horizon))
            events.append(ChurnEvent(crash_at, name, "crash"))
            events.append(ChurnEvent(crash_at + spec.downtime, name, "restart"))
        return cls(events)
