"""Wiring and running one case-study experiment end-to-end.

:func:`build_grid` assembles the full system for a configuration — one
shared discrete-event engine and transport, one PACE evaluation engine (one
shared cache, as §2.2 describes), a scheduler + executor + monitor + agent
per resource, the Fig. 7 hierarchy, and a user portal.  :func:`run_experiment`
replays the seeded §4.1 workload through it and reduces the outcome to the
§3.3 metrics.

:func:`run_degraded` is the horizon-based counterpart for faulty and
churny grids: the strict loop raises when the event queue drains with
requests pending, which is precisely what message loss produces, while
the degraded loop tolerates unresolved requests and reports them.  Both
runners checkpoint and resume byte-identically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.agents.advertisement import (
    AdvertisementStrategy,
    EventPushStrategy,
    NoAdvertisement,
    PeriodicPullStrategy,
)
from repro.agents.agent import Agent, AgentStats
from repro.agents.hierarchy import Hierarchy, wire_hierarchy
from repro.agents.portal import UserPortal
from repro.errors import ExperimentError, TransportError
from repro.experiments.casestudy import GridTopology, case_study_topology
from repro.experiments.config import ExperimentConfig
from repro.experiments.workload import WorkloadItem, generate_workload
from repro.metrics.balancing import GridMetrics, compute_metrics
from repro.metrics.records import (
    CompletionRecord,
    ResilienceCounters,
    records_from_tasks,
)
from repro.net.faults import PORTAL_NAME, ChurnSchedule, FaultPlan
from repro.net.message import Endpoint
from repro.net.transport import Transport
from repro.obs.trace import Tracer
from repro.pace.cache import CacheStats
from repro.pace.evaluation import EvaluationEngine
from repro.pace.resource import ResourceModel
from repro.pace.workloads import ApplicationSpec, paper_application_specs
from repro.scheduling.scheduler import LocalScheduler, SchedulingPolicy
from repro.sim.engine import Engine
from repro.sim.events import Priority
from repro.tasks.execution import ExecutionMode
from repro.tasks.task import Environment
from repro.utils.rng import RngRegistry

__all__ = [
    "GridSystem",
    "ExperimentResult",
    "MembershipSummary",
    "DegradedRun",
    "RequestRates",
    "build_grid",
    "grid_metrics",
    "seeded_workload",
    "run_experiment",
    "checkpoint_experiment",
    "resume_experiment",
    "run_degraded",
    "checkpoint_degraded",
    "resume_degraded",
    "write_checkpoint",
    "tolerant_submitter",
]

#: Hard ceiling on simulation events per experiment — a liveness backstop,
#: far above any legitimate run (the full case study fires ~10^5 events).
MAX_EVENTS = 20_000_000


@dataclass
class GridSystem:
    """A fully wired grid ready to receive requests."""

    config: ExperimentConfig
    topology: GridTopology
    sim: Engine
    transport: Transport
    evaluator: EvaluationEngine
    schedulers: Dict[str, LocalScheduler]
    agents: Dict[str, Agent]
    hierarchy: Hierarchy
    portal: UserPortal
    specs: Mapping[str, ApplicationSpec]
    rngs: Optional[RngRegistry] = None
    tracer: Optional[Tracer] = None

    def start(self) -> None:
        """Activate advertisement strategies and resource monitors."""
        self.hierarchy.start_all()
        for scheduler in self.schedulers.values():
            scheduler.monitor.start()

    def stop(self) -> None:
        """Deactivate periodic processes so the event queue can drain."""
        self.hierarchy.stop_all()
        for scheduler in self.schedulers.values():
            scheduler.monitor.stop()


@dataclass
class ExperimentResult:
    """Everything one experiment produced."""

    config: ExperimentConfig
    metrics: GridMetrics
    records: List[CompletionRecord]
    workload: List[WorkloadItem]
    agent_stats: Dict[str, AgentStats]
    cache_stats: CacheStats
    messages_sent: int
    rejected_count: int
    wall_seconds: float
    messages_delivered: int = 0
    #: sha256 over every named RNG stream's final state (see
    #: :meth:`repro.utils.rng.RngRegistry.state_digest`) — the witness the
    #: tracing-changes-nothing property tests compare.
    rng_digest: str = ""

    @property
    def horizon(self) -> float:
        """The metrics observation period ``t``."""
        return self.metrics.horizon


class RequestRates:
    """Success rates of a run or point counting ``submitted``,
    ``succeeded`` and ``deadline_met`` requests."""

    @property
    def completion_rate(self) -> float:
        """Requests that produced a successful result / requests submitted."""
        return self.succeeded / self.submitted if self.submitted else 0.0

    @property
    def deadline_met_rate(self) -> float:
        """Requests completed by their deadline / requests submitted."""
        return self.deadline_met / self.submitted if self.submitted else 0.0


#: The failure-detector and healer stats a :class:`MembershipSummary` totals.
_DETECTOR_TOTALS = ("suspects", "recoveries", "confirms", "heartbeats_sent")
_HEALER_TOTALS = ("orphaned", "adoptions_completed", "promotions", "rejoins", "give_ups")


@dataclass(frozen=True)
class MembershipSummary:
    """Grid-wide failure-detection and self-healing totals for one run."""

    suspects: int = 0
    recoveries: int = 0
    confirms: int = 0
    heartbeats_sent: int = 0
    orphaned: int = 0
    adoptions_completed: int = 0
    promotions: int = 0
    rejoins: int = 0
    give_ups: int = 0
    repair_count: int = 0
    mean_repair_seconds: float = 0.0

    @classmethod
    def from_system(cls, system: GridSystem) -> "MembershipSummary":
        """Aggregate every agent's detector and healer stats."""
        totals = dict.fromkeys(_DETECTOR_TOTALS + _HEALER_TOTALS, 0)
        durations: List[float] = []
        for agent in system.agents.values():
            for part, names in (
                (agent.detector, _DETECTOR_TOTALS),
                (agent.healer, _HEALER_TOTALS),
            ):
                if part is not None:
                    for name in names:
                        totals[name] += getattr(part.stats, name)
            if agent.healer is not None:
                durations.extend(agent.healer.repair_durations)
        return cls(
            repair_count=len(durations),
            mean_repair_seconds=(
                sum(durations) / len(durations) if durations else 0.0
            ),
            **totals,
        )


@dataclass
class DegradedRun(RequestRates):
    """Everything one degraded run produced."""

    result: ExperimentResult
    submitted: int
    succeeded: int
    failed: int
    unresolved: int
    deadline_met: int
    counters: ResilienceCounters
    crashes: int
    restarts: int
    fault_dropped: int
    #: ``None`` when the membership layer was disabled for the run.
    membership: Optional[MembershipSummary] = None


def build_grid(
    config: ExperimentConfig,
    topology: Optional[GridTopology] = None,
    *,
    tracer: Optional[Tracer] = None,
) -> GridSystem:
    """Assemble the full system for *config* (default: the Fig. 7 grid).

    Passing a :class:`~repro.obs.trace.Tracer` threads it through every
    layer — engine, transport, schedulers, GA kernels, agents, and the
    portal.  ``tracer=None`` (the default) leaves every emission site a
    single pointer comparison; a traced run's outputs are byte-identical
    either way (property-tested).
    """
    topo = topology if topology is not None else case_study_topology()
    rngs = RngRegistry(config.master_seed)
    sim = Engine(tracer=tracer)
    transport = Transport(sim, tracer=tracer)
    evaluator = EvaluationEngine(
        noise_factor=config.prediction_noise,
        rng=rngs.stream("prediction-noise") if config.prediction_noise > 0 else None,
    )
    specs = paper_application_specs()
    schedulers: Dict[str, LocalScheduler] = {}
    agents: Dict[str, Agent] = {}
    for i, name in enumerate(topo.agent_names):
        resource = ResourceModel.homogeneous(
            name, topo.platform(name), topo.nproc[name]
        )
        # A straggler node's tasks run slower than their PACE predictions
        # (grey failure): the fault spec's service factor becomes a
        # constant background load on the execution engine.
        service_factor = (
            config.faults.service_factor_for(name) if config.faults is not None else 1.0
        )
        scheduler = LocalScheduler(
            sim,
            resource,
            evaluator,
            policy=config.policy,
            rng=rngs.stream(f"ga-{name}"),
            ga_config=config.ga_config,
            generations_per_event=config.generations_per_event,
            execution_mode=(
                ExecutionMode.SIMULATED
                if config.runtime_noise > 0
                else ExecutionMode.TEST
            ),
            runtime_noise=config.runtime_noise,
            execution_rng=(
                rngs.stream(f"exec-{name}") if config.runtime_noise > 0 else None
            ),
            freetime_mode=config.freetime_mode,
            tracer=tracer,
            load_profile=(
                (lambda t, _load=service_factor - 1.0: _load)
                if service_factor > 1.0
                else None
            ),
        )
        schedulers[name] = scheduler
        agents[name] = Agent(
            name,
            Endpoint(f"{name.lower()}.grid.example", 1000 + i),
            scheduler,
            transport,
            catalogue=topo.catalogue,
            discovery_config=config.discovery,
            advertisement=_advertisement(config),
            resilience=config.resilience,
            membership=config.membership,
            global_policy=config.global_policy,
            tracer=tracer,
        )
    hierarchy = wire_hierarchy(agents, dict(topo.parent_of))
    portal = UserPortal(
        transport, sim, resilience=config.resilience, tracer=tracer
    )
    if config.faults is not None:
        endpoints = {name: agent.endpoint for name, agent in agents.items()}
        endpoints[PORTAL_NAME] = portal.endpoint
        # The plan's stream exists even for a zero plan (creating it never
        # touches the other streams); draws happen only when they matter.
        transport.set_fault_plan(
            FaultPlan(
                config.faults,
                rng=rngs.stream("fault-injection"),
                endpoints=endpoints,
            )
        )
    return GridSystem(
        config=config,
        topology=topo,
        sim=sim,
        transport=transport,
        evaluator=evaluator,
        schedulers=schedulers,
        agents=agents,
        hierarchy=hierarchy,
        portal=portal,
        specs=specs,
        rngs=rngs,
        tracer=tracer,
    )


def _advertisement(config: ExperimentConfig) -> AdvertisementStrategy:
    if not config.agents_enabled or config.advertisement == "none":
        return NoAdvertisement()
    if config.advertisement == "push":
        return EventPushStrategy()
    return PeriodicPullStrategy(config.pull_interval)


def seeded_workload(
    config: ExperimentConfig, topology: GridTopology
) -> List[WorkloadItem]:
    """*config*'s seeded §4.1 request stream over *topology*'s agents."""
    return generate_workload(
        topology.agent_names,
        paper_application_specs(),
        count=config.request_count,
        interval=config.request_interval,
        master_seed=config.master_seed,
    )


def _arm_grid(
    config: ExperimentConfig,
    topology: Optional[GridTopology],
    workload: Optional[List[WorkloadItem]],
    tracer: Optional[Tracer],
    make_submitter: Callable[["GridSystem", WorkloadItem], Callable[[], None]],
) -> Tuple[GridSystem, List[WorkloadItem], Dict[int, "object"]]:
    """Build and start the grid, then schedule one arrival per request.

    *workload* defaults to :func:`seeded_workload`.  Returns ``(system,
    items, arrivals)``, arrivals keyed by workload index.
    """
    system = build_grid(config, topology, tracer=tracer)
    items = (
        workload if workload is not None else seeded_workload(config, system.topology)
    )
    system.start()
    arrivals = {
        index: system.sim.schedule(
            item.submit_time,
            make_submitter(system, item),
            priority=Priority.ARRIVAL,
            label=f"arrival-{item.application}",
        )
        for index, item in enumerate(items)
    }
    return system, items, arrivals


def _step_to(system: GridSystem, at_step: int) -> None:
    """Fire exactly *at_step* events — the run-up to a checkpoint."""
    if at_step < 1:
        raise ExperimentError(f"at_step must be >= 1, got {at_step}")
    for steps in range(1, at_step + 1):
        if not system.sim.step():
            raise ExperimentError(
                f"run finished after {steps - 1} events, before at_step={at_step}"
            )


def _check_cadence(
    checkpoint_every: Optional[int], checkpoint_path: Optional[str]
) -> None:
    """Validate a periodic-checkpoint request before the run starts."""
    if checkpoint_every is None:
        return
    if checkpoint_every < 1:
        raise ExperimentError(
            f"checkpoint_every must be >= 1, got {checkpoint_every}"
        )
    if checkpoint_path is None:
        raise ExperimentError("checkpoint_every requires checkpoint_path")


def run_experiment(
    config: ExperimentConfig,
    topology: Optional[GridTopology] = None,
    *,
    workload: Optional[List[WorkloadItem]] = None,
    tracer: Optional[Tracer] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
) -> ExperimentResult:
    """Run one experiment to completion and compute the §3.3 metrics.

    The run finishes when every submitted request has produced a result
    (execution completed, or rejection in strict mode) — the paper measures
    final scheduling scenarios, not a truncated horizon.

    With ``checkpoint_every=N`` (events) and ``checkpoint_path``, the run
    writes a resumable snapshot every N processed events; resuming it via
    :func:`resume_experiment` continues byte-identical to the uninterrupted
    run (property-tested).
    """
    t_wall = time.perf_counter()
    system, items, arrivals = _arm_grid(
        config, topology, workload, tracer, _submitter
    )
    return _drive_experiment(
        system,
        items,
        arrivals,
        steps=0,
        t_wall=t_wall,
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
    )


def checkpoint_experiment(
    config: ExperimentConfig,
    topology: Optional[GridTopology] = None,
    *,
    workload: Optional[List[WorkloadItem]] = None,
    tracer: Optional[Tracer] = None,
    at_step: int,
    path: str,
) -> str:
    """Run a strict experiment for exactly *at_step* events, snapshot, stop.

    The abandoned half-run is discarded; :func:`resume_experiment` on the
    written file continues it to completion.  Returns the snapshot digest.

    Raises
    ------
    ExperimentError
        If the run's event queue drains before *at_step* events fire.
    """
    system, items, arrivals = _arm_grid(
        config, topology, workload, tracer, _submitter
    )
    _step_to(system, at_step)
    return write_checkpoint(path, system, items, arrivals, at_step)


def resume_experiment(
    path: str,
    *,
    tracer: Optional[Tracer] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
) -> ExperimentResult:
    """Resume a strict experiment from a snapshot written by :func:`run_experiment`.

    The grid is rebuilt from the snapshot's own configuration and
    topology, every component is rewound, pending arrival events are
    re-created with their original identities, and the run continues to
    completion.  Everything downstream of the snapshot instant —
    completion records, metrics, trace records, the final RNG digest —
    is byte-identical to the uninterrupted run.
    """
    t_wall = time.perf_counter()
    payload, system, items, arrivals = _restore(path, "experiment", tracer)
    return _drive_experiment(
        system,
        items,
        arrivals,
        steps=int(payload["steps"]),
        t_wall=t_wall,
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
    )


def _drive_experiment(
    system: GridSystem,
    items: List[WorkloadItem],
    arrivals: Dict[int, "object"],
    *,
    steps: int,
    t_wall: float,
    checkpoint_every: Optional[int],
    checkpoint_path: Optional[str],
) -> ExperimentResult:
    _check_cadence(checkpoint_every, checkpoint_path)
    while system.portal.pending_count > 0 or system.portal.submitted_count < len(items):
        if not system.sim.step():
            raise ExperimentError(
                f"event queue drained with {system.portal.pending_count} "
                "requests still pending"
            )
        steps += 1
        if steps > MAX_EVENTS:
            raise ExperimentError(f"experiment exceeded {MAX_EVENTS} events")
        if checkpoint_every is not None and steps % checkpoint_every == 0:
            write_checkpoint(checkpoint_path, system, items, arrivals, steps)
    system.stop()
    return _collect_result(system, items, t_wall)


def _arm_churn(
    system: GridSystem, config: ExperimentConfig
) -> Tuple[int, int, List[Tuple[str, str, object]]]:
    """Generate and schedule the run's churn events (if any).

    Returns ``(crashes, restarts, churn_events)``.  A spec targeting
    coordinators (or leaves) is resolved against the built hierarchy —
    agents that currently have children.
    """
    if config.churn is None or config.churn.rate == 0:
        return 0, 0, []
    coordinators = (
        None
        if config.churn.target == "any"
        else [name for name, agent in system.agents.items() if agent.children]
    )
    schedule = ChurnSchedule.generate(
        system.topology.agent_names,
        config.churn,
        config.request_phase_seconds,
        RngRegistry(config.master_seed).stream("churn"),
        head=system.hierarchy.head.name,
        coordinators=coordinators,
    )
    churn_events: List[Tuple[str, str, object]] = []
    for event in schedule:
        agent = system.agents[event.agent]
        action = agent.deactivate if event.action == "crash" else agent.reactivate
        churn_events.append(
            (
                event.agent,
                event.action,
                system.sim.schedule(
                    event.time,
                    action,
                    priority=Priority.MONITORING,
                    label=f"churn-{event.action}-{event.agent}",
                ),
            )
        )
    return schedule.crash_count, schedule.restart_count, churn_events


def _degraded_extra(
    churn_events: List[Tuple[str, str, object]], crashes: int, restarts: int
) -> Dict[str, object]:
    """The churn state a degraded snapshot carries beyond the grid's own."""
    return {
        "churn": [
            {"agent": agent, "action": action, "event": handle.descriptor()}
            for agent, action, handle in churn_events
            if handle.pending
        ],
        "crashes": crashes,
        "restarts": restarts,
    }


def run_degraded(
    config: ExperimentConfig,
    topology: Optional[GridTopology] = None,
    *,
    workload: Optional[List[WorkloadItem]] = None,
    tracer: Optional[Tracer] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
) -> DegradedRun:
    """Run *config* under its fault plan and churn schedule to a horizon.

    Unlike the strict experiment loop, requests may end the run
    unresolved (their REQUEST or RESULT was lost and nothing retried);
    they are counted, not raised.  The run proceeds in two phases:

    1. until every request resolves or the clock passes the last
       deadline, with periodic processes and churn active;
    2. a final drain with periodics stopped and leftover churn handles
       cancelled, letting in-flight completions, retries, and ack
       timeouts resolve — the queue is finite once nothing re-arms.

    With ``checkpoint_every``/``checkpoint_path``, phase 1 writes a
    resumable snapshot every N events (see :func:`resume_degraded`).
    """
    t_wall = time.perf_counter()
    system, items, arrivals = _arm_grid(
        config, topology, workload, tracer, tolerant_submitter
    )
    crashes, restarts, churn_events = _arm_churn(system, config)
    return _drive_degraded(
        system,
        items,
        arrivals,
        churn_events,
        crashes=crashes,
        restarts=restarts,
        steps=0,
        t_wall=t_wall,
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
    )


def checkpoint_degraded(
    config: ExperimentConfig,
    topology: Optional[GridTopology] = None,
    *,
    workload: Optional[List[WorkloadItem]] = None,
    tracer: Optional[Tracer] = None,
    at_step: int,
    path: str,
) -> str:
    """Run a degraded experiment for *at_step* events, snapshot, stop.

    The counterpart of :func:`checkpoint_experiment` for faulty/churny
    runs; :func:`resume_degraded` continues the written file.  Returns
    the snapshot digest.
    """
    system, items, arrivals = _arm_grid(
        config, topology, workload, tracer, tolerant_submitter
    )
    crashes, restarts, churn_events = _arm_churn(system, config)
    _step_to(system, at_step)
    return write_checkpoint(
        path,
        system,
        items,
        arrivals,
        at_step,
        kind="degraded",
        extra=_degraded_extra(churn_events, crashes, restarts),
    )


def resume_degraded(
    path: str,
    *,
    tracer: Optional[Tracer] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
) -> DegradedRun:
    """Resume a degraded run from a snapshot written by :func:`run_degraded`.

    Pending churn timers are re-created alongside the component state, so
    not-yet-fired crashes and restarts land at their original instants;
    the continuation is byte-identical to the uninterrupted run.
    """
    t_wall = time.perf_counter()
    payload, system, items, arrivals = _restore(path, "degraded", tracer)
    churn_events: List[Tuple[str, str, object]] = []
    for entry in payload["churn"]:
        agent = system.agents[str(entry["agent"])]
        action = agent.deactivate if entry["action"] == "crash" else agent.reactivate
        churn_events.append(
            (
                str(entry["agent"]),
                str(entry["action"]),
                system.sim.restore_event(entry["event"], action),
            )
        )
    return _drive_degraded(
        system,
        items,
        arrivals,
        churn_events,
        crashes=int(payload["crashes"]),
        restarts=int(payload["restarts"]),
        steps=int(payload["steps"]),
        t_wall=t_wall,
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
    )


def _drive_degraded(
    system: GridSystem,
    items: List[WorkloadItem],
    arrivals,
    churn_events,
    *,
    crashes: int,
    restarts: int,
    steps: int,
    t_wall: float,
    checkpoint_every: Optional[int],
    checkpoint_path: Optional[str],
) -> DegradedRun:
    _check_cadence(checkpoint_every, checkpoint_path)
    horizon = max(item.deadline for item in items)

    def resolved() -> bool:
        return (
            system.portal.submitted_count >= len(items)
            and system.portal.pending_count == 0
        )

    while not resolved():
        next_time = system.sim.next_event_time()
        if next_time is None or next_time > horizon:
            break
        system.sim.step()
        steps += 1
        if steps > MAX_EVENTS:
            raise ExperimentError(f"experiment exceeded {MAX_EVENTS} events")
        if checkpoint_every is not None and steps % checkpoint_every == 0:
            write_checkpoint(
                checkpoint_path,
                system,
                items,
                arrivals,
                steps,
                kind="degraded",
                extra=_degraded_extra(churn_events, crashes, restarts),
            )
    for _, _, handle in churn_events:
        handle.cancel()
    system.stop()
    # Final drain: with periodics and churn off, only completions, retry
    # timers, and in-flight messages remain — a finite queue.
    while not resolved():
        if not system.sim.step():
            break
        steps += 1
        if steps > MAX_EVENTS:
            raise ExperimentError(f"experiment exceeded {MAX_EVENTS} events")

    # Observed to the clock, not to the last completion: a degraded run
    # may complete nothing at all.
    result = _collect_result(
        system, items, t_wall, horizon=max(system.sim.now, 1e-9)
    )
    successes = system.portal.successes()
    plan = system.transport.fault_plan
    return DegradedRun(
        result=result,
        submitted=system.portal.submitted_count,
        succeeded=len(successes),
        failed=len(system.portal.failures()),
        unresolved=system.portal.pending_count,
        deadline_met=sum(
            1
            for r in successes
            if r.completion_time is not None and r.completion_time <= r.deadline
        ),
        counters=ResilienceCounters.from_stats(
            [agent.stats for agent in system.agents.values()] + [system.portal.stats]
        ),
        crashes=crashes,
        restarts=restarts,
        fault_dropped=plan.dropped_count if plan is not None else 0,
        membership=(
            MembershipSummary.from_system(system)
            if system.config.membership.enabled
            else None
        ),
    )


def write_checkpoint(
    path: str,
    system: GridSystem,
    items: List[WorkloadItem],
    arrivals: Dict[int, "object"],
    steps: int,
    *,
    kind: str = "experiment",
    extra: Optional[Dict[str, object]] = None,
) -> str:
    """Write one resumable snapshot of a running experiment; returns its digest."""
    from repro.checkpoint.format import write_snapshot
    from repro.checkpoint.snapshot import (
        encode_config,
        encode_topology,
        encode_workload_item,
        snapshot_system,
    )

    payload: Dict[str, object] = {
        "kind": kind,
        "config": encode_config(system.config),
        "topology": encode_topology(system.topology),
        "workload": [encode_workload_item(item) for item in items],
        "steps": steps,
        "arrivals": [
            {"index": index, "event": handle.descriptor()}
            for index, handle in sorted(arrivals.items())
            if handle.pending
        ],
        "system": snapshot_system(system),
    }
    if extra:
        payload.update(extra)
    return write_snapshot(path, payload)


def _restore(path: str, expected_kind: str, tracer: Optional[Tracer]):
    """Read the snapshot at *path*, rebuild and rewind its grid, re-arm arrivals.

    Shared by every resume entry point; returns ``(payload, system, items,
    arrivals)``.  The submit callback is the strict one for
    ``"experiment"`` snapshots and the fault-tolerant one otherwise
    (degraded/soak runs must survive a crashed entry agent).
    """
    from repro.errors import CheckpointError
    from repro.checkpoint.format import read_snapshot
    from repro.checkpoint.snapshot import (
        decode_config,
        decode_topology,
        decode_workload_item,
        restore_system,
    )

    payload = read_snapshot(path)
    kind = payload.get("kind")
    if kind != expected_kind:
        raise CheckpointError(
            f"snapshot is a {kind!r} checkpoint, not {expected_kind!r}"
        )
    config = decode_config(payload["config"])
    topology = decode_topology(payload["topology"])
    system = build_grid(config, topology, tracer=tracer)
    items = [decode_workload_item(raw) for raw in payload["workload"]]
    restore_system(system, payload["system"])
    make_submitter = _submitter if expected_kind == "experiment" else tolerant_submitter
    arrivals = {}
    for entry in payload["arrivals"]:
        index = int(entry["index"])
        arrivals[index] = system.sim.restore_event(
            entry["event"], make_submitter(system, items[index])
        )
    return payload, system, items, arrivals


def grid_metrics(
    system: GridSystem, *, horizon: Optional[float] = None
) -> Tuple[List[CompletionRecord], GridMetrics]:
    """Every completion record on *system* and the §3.3 metrics over them.

    *horizon* is the observation period ``t`` (default: the latest
    completion, as the paper measures final scheduling scenarios).
    """
    records: List[CompletionRecord] = []
    busy = {}
    nodes = {}
    for name, scheduler in system.schedulers.items():
        records.extend(records_from_tasks(scheduler.executor.completed_tasks))
        busy[name] = scheduler.executor.busy_intervals
        nodes[name] = scheduler.resource.size
    return records, compute_metrics(records, busy, nodes, horizon=horizon)


def _collect_result(
    system: GridSystem,
    items: List[WorkloadItem],
    t_wall: float,
    *,
    horizon: Optional[float] = None,
) -> ExperimentResult:
    records, metrics = grid_metrics(system, horizon=horizon)
    return ExperimentResult(
        config=system.config,
        metrics=metrics,
        records=records,
        workload=items,
        agent_stats={name: agent.stats for name, agent in system.agents.items()},
        cache_stats=system.evaluator.cache.stats,
        messages_sent=system.transport.sent,
        rejected_count=len(system.portal.failures()),
        wall_seconds=time.perf_counter() - t_wall,
        messages_delivered=system.transport.delivered,
        rng_digest=system.rngs.state_digest() if system.rngs is not None else "",
    )


def _submitter(system: GridSystem, item: WorkloadItem):
    def submit() -> None:
        system.portal.submit(
            system.agents[item.agent_name],
            system.specs[item.application].model,
            Environment.TEST,
            item.deadline,
        )

    return submit


def tolerant_submitter(system: GridSystem, item: WorkloadItem):
    """A submitter that tolerates a crashed entry agent (degraded runs).

    The request registers, the send is lost, and the request counts as
    unresolved unless the portal's retry machinery (when enabled)
    recovers it.
    """

    def submit() -> None:
        try:
            system.portal.submit(
                system.agents[item.agent_name],
                system.specs[item.application].model,
                Environment.TEST,
                item.deadline,
            )
        except TransportError:
            pass

    return submit
