"""Wiring and running one experiment end to end.

:func:`build_grid` assembles the full system for a configuration — one
shared discrete-event engine and transport, one PACE evaluation engine (one
shared cache, as §2.2 describes), a scheduler + executor + monitor + agent
per resource, the Fig. 7 hierarchy, and a user portal.

One driver replays a seeded request stream, and optionally a workflow
stream, through that grid in three steps: it arms the grid, the arrivals
and churn; it steps under one of three stop rules; it collects the result.
The stop rule is the run's *mode*:

``strict`` (:func:`run_experiment`)
    Until every arrival has fired and every request and workflow has
    resolved — the paper measures final scheduling scenarios, not a
    truncated horizon.  A queue that drains first is an error.
``degraded`` (:func:`run_degraded`)
    For faulty and churny grids, where lost messages leave requests
    unresolved: until everything resolves or the clock passes the last
    deadline, then a drain with churn cancelled and the periodic
    processes stopped.  Unresolved requests are counted, not raised.
``soak`` (:func:`run_soak`)
    The strict rule, closing a metrics window at each boundary (see
    :mod:`repro.experiments.soak`).

Every run writes one snapshot layout — periodically, or once at a chosen
step through :func:`checkpoint_run` — and :func:`resume_run` continues any
snapshot byte-identically to the uninterrupted run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.agents.advertisement import (
    AdvertisementStrategy,
    EventPushStrategy,
    NoAdvertisement,
    PullRounds,
)
from repro.agents.agent import Agent, AgentStats
from repro.agents.hierarchy import Hierarchy, wire_hierarchy
from repro.agents.portal import UserPortal
from repro.errors import CheckpointError, ExperimentError, TransportError
from repro.experiments.casestudy import GridTopology, case_study_topology
from repro.experiments.config import ExperimentConfig
from repro.experiments.scenarios import WorkflowItem
from repro.experiments.workload import WorkloadItem, generate_workload
from repro.metrics.balancing import GridMetrics, compute_metrics
from repro.metrics.records import (
    CompletionRecord,
    ResilienceCounters,
    records_from_tasks,
)
from repro.net.message import Endpoint
from repro.net.transport import Transport
from repro.pace.cache import CacheStats
from repro.pace.evaluation import EvaluationEngine
from repro.pace.resource import ResourceModel
from repro.pace.workloads import ApplicationSpec, paper_application_specs
from repro.scheduling.scheduler import LocalScheduler
from repro.sim.engine import Engine
from repro.sim.events import Priority
from repro.tasks.graph import TaskGraph
from repro.tasks.task import Environment
from repro.tasks.workflow import WorkflowCoordinator
from repro.utils.rng import RngRegistry

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.experiments.soak import SoakProgress, SoakResult
    from repro.obs.trace import Tracer

__all__ = [
    "GridSystem",
    "ExperimentResult",
    "MembershipSummary",
    "DegradedRun",
    "RequestRates",
    "WorkflowStream",
    "WorkflowOutcome",
    "build_grid",
    "seeded_workload",
    "run_experiment",
    "run_degraded",
    "run_soak",
    "checkpoint_run",
    "resume_run",
]

#: Hard ceiling on simulation events per run — a liveness backstop, far
#: above any legitimate run (the full case study fires ~10^5 events).
MAX_EVENTS = 20_000_000


@dataclass
class GridSystem:
    """A fully wired grid ready to receive requests."""

    config: ExperimentConfig
    topology: GridTopology
    sim: Engine
    transport: Transport
    #: The grid's one advertisement strategy, shared by every agent.
    advertisement: AdvertisementStrategy
    evaluator: EvaluationEngine
    schedulers: Dict[str, LocalScheduler]
    agents: Dict[str, Agent]
    hierarchy: Hierarchy
    portal: UserPortal
    specs: Mapping[str, ApplicationSpec]
    rngs: Optional[RngRegistry] = None
    tracer: Optional[Tracer] = None

    def start(self) -> None:
        """Start every agent's advertising and failure detection (agent
        order) and every resource monitor."""
        self.hierarchy.start_all()
        for scheduler in self.schedulers.values():
            scheduler.monitor.start()

    def stop(self) -> None:
        """Deactivate periodic processes so the event queue can drain."""
        self.hierarchy.stop_all()
        for scheduler in self.schedulers.values():
            scheduler.monitor.stop()


@dataclass(frozen=True)
class WorkflowStream:
    """A run's workflow arrivals, passed as data so a snapshot can re-arm them.

    ``release_mode`` is the coordinator's (``"staged"`` or ``"eager"``).
    ``aware`` stamps precedence-aware metadata on every node — b-level
    priorities and per-node deadlines from PACE estimates on the entry
    agent's hardware; ``False`` is the precedence-naive baseline.
    """

    items: Tuple[WorkflowItem, ...]
    release_mode: str
    aware: bool


@dataclass(frozen=True)
class WorkflowOutcome:
    """How one workflow of a run's stream ended."""

    workflow_id: int
    deadline: float
    #: Latest sink completion; ``None`` unless every node succeeded.
    completion_time: Optional[float]
    tasks_released: int
    tasks_succeeded: int

    @property
    def succeeded(self) -> bool:
        """Every node completed successfully."""
        return self.completion_time is not None

    @property
    def deadline_met(self) -> bool:
        """The whole graph finished by its deadline."""
        return self.completion_time is not None and self.completion_time <= self.deadline


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
    #: Events the run fired.
    steps: int = 0
    #: One outcome per started workflow, in start order (empty without a
    #: workflow stream).
    workflows: Tuple[WorkflowOutcome, ...] = ()

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
    advertisement: AdvertisementStrategy
    if not config.agents_enabled or config.advertisement == "none":
        advertisement = NoAdvertisement()
    elif config.advertisement == "push":
        advertisement = EventPushStrategy()
    else:
        advertisement = PullRounds(sim, transport, config.pull_interval)
    schedulers: Dict[str, LocalScheduler] = {}
    agents: Dict[str, Agent] = {}
    # Resources of one hardware type share one node table, built and
    # validated once per build.
    node_tables: Dict[Tuple[str, int], ResourceModel] = {}
    for i, name in enumerate(topo.agent_names):
        hardware = (topo.platforms[name], topo.nproc[name])
        template = node_tables.get(hardware)
        if template is None:
            resource = node_tables[hardware] = ResourceModel.homogeneous(
                name, topo.platform(name), topo.nproc[name]
            )
        else:
            resource = template.renamed(name)
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
            # A component gets a random stream only if it draws from it.
            rng=rngs.stream(f"ga-{name}") if config.policy.draws else None,
            ga_config=config.ga_config,
            generations_per_event=config.generations_per_event,
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
            advertisement=advertisement,
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
        from repro.net.faults import PORTAL_NAME, FaultPlan

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
        advertisement=advertisement,
        evaluator=evaluator,
        schedulers=schedulers,
        agents=agents,
        hierarchy=hierarchy,
        portal=portal,
        specs=specs,
        rngs=rngs,
        tracer=tracer,
    )


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


# ------------------------------------------------------------ entry points


def run_experiment(
    config: ExperimentConfig,
    topology: Optional[GridTopology] = None,
    *,
    workload: Optional[List[WorkloadItem]] = None,
    workflows: Optional[WorkflowStream] = None,
    tracer: Optional[Tracer] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
) -> ExperimentResult:
    """Run one experiment to completion under the strict rule.

    *workload* defaults to :func:`seeded_workload`; *workflows* adds a
    workflow stream run through one
    :class:`~repro.tasks.workflow.WorkflowCoordinator` (refused on a grid
    with a fault plan or churn).  With ``checkpoint_every=N`` (events)
    and ``checkpoint_path``, the run rewrites a resumable snapshot every N
    events; :func:`resume_run` continues it byte-identically to the
    uninterrupted run (property-tested).
    """
    return _complete(
        _arm(
            "strict", config, topology, workload, workflows, tracer,
            checkpoint_every=checkpoint_every, checkpoint_path=checkpoint_path,
        )
    )


def run_degraded(
    config: ExperimentConfig,
    topology: Optional[GridTopology] = None,
    *,
    workload: Optional[List[WorkloadItem]] = None,
    tracer: Optional[Tracer] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
) -> DegradedRun:
    """Run *config* under its fault plan and churn schedule (degraded rule).

    Requests may end the run unresolved (their REQUEST or RESULT was lost
    and nothing retried); they are counted, not raised.  Periodic
    snapshots are written only before the degraded rule stops, never
    during the final drain.
    """
    return _complete(
        _arm(
            "degraded", config, topology, workload, None, tracer,
            checkpoint_every=checkpoint_every, checkpoint_path=checkpoint_path,
        )
    )


def run_soak(
    config: ExperimentConfig,
    topology: Optional[GridTopology] = None,
    *,
    window_seconds: float = 500.0,
    workload: Optional[List[WorkloadItem]] = None,
    tracer: Optional[Tracer] = None,
    checkpoint_path: Optional[str] = None,
) -> SoakResult:
    """Run a continuous-arrival soak to completion, one window at a time.

    ``config.request_count`` sets the stream length (soak runs typically
    use thousands); pass *workload* to drive the soak with an explicit
    item list instead — generated scenarios use this to supply bursty or
    heavy-tailed arrival streams.  With ``checkpoint_path``, one resumable
    snapshot is rewritten at every window boundary.
    """
    from repro.experiments.soak import SoakProgress

    return _complete(
        _arm(
            "soak", config, topology, workload, None, tracer,
            soak=SoakProgress.begin(window_seconds),
            checkpoint_path=checkpoint_path,
        )
    )


def checkpoint_run(
    config: ExperimentConfig,
    topology: Optional[GridTopology] = None,
    *,
    mode: str = "strict",
    workload: Optional[List[WorkloadItem]] = None,
    workflows: Optional[WorkflowStream] = None,
    window_seconds: float = 500.0,
    tracer: Optional[Tracer] = None,
    at_step: int,
    path: str,
) -> str:
    """Run for exactly *at_step* events under *mode*'s stop rule, snapshot, stop.

    *mode* is ``"strict"``, ``"degraded"`` or ``"soak"`` (*window_seconds*
    applies to soak only).  The abandoned half-run is discarded;
    :func:`resume_run` on the written file continues it.  Returns the
    snapshot digest.

    Raises
    ------
    ExperimentError
        If *at_step* < 1, or if the stop rule ends stepping before
        *at_step* events fire — a snapshot there would hold a world the
        uninterrupted run never enters.  Nothing is written then.
    """
    from repro.experiments.soak import SoakProgress

    if at_step < 1:
        raise ExperimentError(f"at_step must be >= 1, got {at_step}")
    run = _arm(
        mode, config, topology, workload, workflows, tracer,
        soak=SoakProgress.begin(window_seconds) if mode == "soak" else None,
    )
    _drive(run, _RULES[mode], at_step=at_step)
    if run.steps < at_step:
        raise ExperimentError(
            f"the {mode} stop rule ended the run after {run.steps} events, "
            f"before at_step={at_step}"
        )
    return _write(run, path)


def resume_run(
    path: str,
    *,
    tracer: Optional[Tracer] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
) -> Union[ExperimentResult, DegradedRun, SoakResult]:
    """Resume any snapshot to completion under the stop rule it was taken in.

    The grid is rebuilt from the snapshot's own configuration and
    topology, every component is rewound, pending arrival, churn and
    workflow events are re-created with their original identities, and
    the run continues.  Everything downstream of the snapshot instant —
    completion records, metrics, windows, workflow outcomes, trace
    records, the final RNG digest — is byte-identical to the
    uninterrupted run.  Returns what the mode's run function returns.
    The cadence arguments mean what they mean there; for soak snapshots
    ``checkpoint_path`` is also rewritten at every window boundary.
    """
    _check_cadence(checkpoint_every, checkpoint_path)
    run = _restore(path, tracer)
    run.checkpoint_every = checkpoint_every
    run.checkpoint_path = checkpoint_path
    return _complete(run)


# ------------------------------------------------------------------ driver


@dataclass
class _Run:
    """One run's driver state: what the stop rules read and a snapshot holds."""

    mode: str
    system: GridSystem
    items: List[WorkloadItem]
    workflows: Optional[WorkflowStream] = None
    soak: Optional[SoakProgress] = None
    steps: int = 0
    checkpoint_every: Optional[int] = None
    checkpoint_path: Optional[str] = None
    t_wall: float = field(default_factory=time.perf_counter)
    #: Request arrivals fired so far; arrival events by workload index.
    arrived: int = 0
    arrivals: Dict[int, object] = field(default_factory=dict)
    #: Workflow arrival events by stream index.
    workflow_arrivals: Dict[int, object] = field(default_factory=dict)
    #: ``(agent, action, event)`` per churn event, and the schedule's totals.
    churn: List[Tuple[str, str, object]] = field(default_factory=list)
    crashes: int = 0
    restarts: int = 0
    #: The degraded rule's horizon: the last deadline.
    horizon: float = field(init=False)
    coordinator: Optional[WorkflowCoordinator] = field(init=False)

    def __post_init__(self) -> None:
        deadlines = [item.deadline for item in self.items]
        if self.workflows is not None:
            deadlines += [item.deadline for item in self.workflows.items]
        self.horizon = max(deadlines, default=0.0)
        self.coordinator = (
            None
            if self.workflows is None
            else WorkflowCoordinator(
                self.system.portal,
                {name: spec.model for name, spec in self.system.specs.items()},
                tracer=self.system.tracer,
            )
        )


def _resolved(run: _Run) -> bool:
    """Every arrival has fired and every request and workflow has resolved."""
    if run.arrived < len(run.items) or run.system.portal.pending_count:
        return False
    coordinator = run.coordinator
    return coordinator is None or (
        len(coordinator.runs) == len(run.workflows.items)
        and coordinator.all_resolved
    )


def _strict(run: _Run) -> bool:
    """Step until everything resolves; the queue draining first is an error."""
    return not _resolved(run)


def _degraded(run: _Run) -> bool:
    """Step until everything resolves or the next event lies past the
    last deadline."""
    if _resolved(run):
        return False
    next_time = run.system.sim.next_event_time()
    return next_time is not None and next_time <= run.horizon


def _soak(run: _Run) -> bool:
    """The strict rule, closing a window at each boundary the clock passed
    (and rewriting the run's snapshot there, when it has a path)."""
    if run.soak.close_passed(run.system) and run.checkpoint_path is not None:
        _write(run, run.checkpoint_path)
    return _strict(run)


def _drain(run: _Run) -> bool:
    """Step until everything resolves or the queue empties."""
    return not _resolved(run) and run.system.sim.next_event_time() is not None


#: The stop rule of each run mode (a snapshot's ``mode`` field).
_RULES: Dict[str, Callable[[_Run], bool]] = {
    "strict": _strict,
    "degraded": _degraded,
    "soak": _soak,
}


def _drive(
    run: _Run,
    rule: Callable[[_Run], bool],
    *,
    at_step: Optional[int] = None,
    every: Optional[int] = None,
) -> None:
    """Fire events while *rule* holds, stopping early at *at_step* events.

    The one place a run fires events.  With *every*, a snapshot goes to
    the run's checkpoint path every *every* events.
    """
    sim = run.system.sim
    while rule(run):
        if run.steps == at_step:
            return
        if not sim.step():
            raise ExperimentError(
                f"event queue drained with {run.system.portal.pending_count} "
                "requests still pending"
            )
        run.steps += 1
        if run.steps > MAX_EVENTS:
            raise ExperimentError(f"run exceeded {MAX_EVENTS} events")
        if every is not None and run.steps % every == 0:
            _write(run, run.checkpoint_path)


def _complete(run: _Run):
    """Step *run* to its end under its stop rule, then collect its result."""
    _drive(run, _RULES[run.mode], every=run.checkpoint_every)
    for _, _, event in run.churn:
        event.cancel()
    run.system.stop()
    # With churn and the periodic processes off, only completions, retry
    # timers and in-flight messages remain: a finite queue.  A no-op
    # unless the degraded rule stopped at the horizon.
    _drive(run, _drain)
    return _collect(run)


def _check_cadence(
    checkpoint_every: Optional[int], checkpoint_path: Optional[str]
) -> None:
    """Validate a periodic-checkpoint request before the grid is built."""
    if checkpoint_every is None:
        return
    if checkpoint_every < 1:
        raise ExperimentError(
            f"checkpoint_every must be >= 1, got {checkpoint_every}"
        )
    if checkpoint_path is None:
        raise ExperimentError("checkpoint_every requires checkpoint_path")


def _arm(
    mode: str,
    config: ExperimentConfig,
    topology: Optional[GridTopology],
    workload: Optional[List[WorkloadItem]],
    workflows: Optional[WorkflowStream],
    tracer: Optional[Tracer],
    *,
    soak: Optional[SoakProgress] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
) -> _Run:
    """Build and start the grid, then schedule the arrivals and churn."""
    t_wall = time.perf_counter()
    if mode not in _RULES:
        raise ExperimentError(f"unknown run mode {mode!r}")
    _check_cadence(checkpoint_every, checkpoint_path)
    if workflows is not None and (
        (config.faults is not None and not config.faults.is_noop)
        or (config.churn is not None and config.churn.rate > 0)
    ):
        # Staged releases and data transfers do not yet survive lost
        # messages or crashed clusters: such runs strand workflows and
        # break the dispatch-after-inputs and ack-resolution invariants.
        raise ExperimentError(
            "workflow streams cannot run under a fault plan or churn"
        )
    system = build_grid(config, topology, tracer=tracer)
    run = _Run(
        mode,
        system,
        workload if workload is not None else seeded_workload(config, system.topology),
        workflows,
        soak,
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
        t_wall=t_wall,
    )
    system.start()
    sim = system.sim
    for index, item in enumerate(run.items):
        run.arrivals[index] = sim.schedule(
            item.submit_time,
            _arrival(run, index),
            priority=Priority.ARRIVAL,
            label=f"arrival-{item.application}",
        )
    for index, item in enumerate(workflows.items if workflows is not None else ()):
        run.workflow_arrivals[index] = sim.schedule(
            item.submit_time,
            _workflow_arrival(run, index),
            priority=Priority.ARRIVAL,
            label=f"workflow-{item.shape}",
        )
    if mode == "degraded":
        _arm_churn(run)
    return run


def _arrival(run: _Run, index: int) -> Callable[[], None]:
    """The submit callback of workload item *index*.

    Outside the strict rule a crashed entry agent is tolerated: the
    request registers, the send is lost, and the request counts as
    unresolved unless the portal's retries recover it.
    """
    item = run.items[index]

    def submit() -> None:
        run.arrived += 1
        system = run.system
        try:
            system.portal.submit(
                system.agents[item.agent_name],
                system.specs[item.application].model,
                Environment.TEST,
                item.deadline,
            )
        except TransportError:
            if run.mode == "strict":
                raise

    return submit


def _workflow_arrival(run: _Run, index: int) -> Callable[[], None]:
    """The callback starting workflow *index* of the run's stream."""
    item = run.workflows.items[index]

    def start() -> None:
        system = run.system
        graph = item.graph()
        run.coordinator.start_workflow(
            graph,
            system.agents[item.agent_name],
            item.deadline,
            mode=run.workflows.release_mode,
            durations=(
                _node_durations(system, graph, item.agent_name)
                if run.workflows.aware
                else None
            ),
        )

    return start


def _node_durations(
    system: GridSystem, graph: TaskGraph, agent_name: str
) -> Dict[str, float]:
    """Estimated seconds per node, measured on the entry agent's hardware.

    The portable estimate the coordinator's b-levels need: PACE's best
    predicted time on the cluster the graph enters at.  Where a node is
    later routed elsewhere the estimate is off by that platform's speed
    ratio — an estimate, exactly like the paper's prediction data.
    """
    platform = system.topology.platform(agent_name)
    nproc = system.topology.nproc[agent_name]
    return {
        node: system.evaluator.best_count(
            system.specs[graph.application(node)].model, platform, nproc
        )[1]
        for node in graph.node_names
    }


def _arm_churn(run: _Run) -> None:
    """Generate and schedule the run's churn events (if any).

    A spec targeting coordinators (or leaves) is resolved against the
    built hierarchy — agents that currently have children.
    """
    system = run.system
    spec = system.config.churn
    if spec is None or spec.rate == 0:
        return
    from repro.net.faults import ChurnSchedule

    coordinators = (
        None
        if spec.target == "any"
        else [name for name, agent in system.agents.items() if agent.children]
    )
    schedule = ChurnSchedule.generate(
        system.topology.agent_names,
        spec,
        system.config.request_phase_seconds,
        RngRegistry(system.config.master_seed).stream("churn"),
        head=system.hierarchy.head.name,
        coordinators=coordinators,
    )
    run.crashes, run.restarts = schedule.crash_count, schedule.restart_count
    for event in schedule:
        run.churn.append(
            (
                event.agent,
                event.action,
                system.sim.schedule(
                    event.time,
                    _churn_action(system, event.agent, event.action),
                    priority=Priority.MONITORING,
                    label=f"churn-{event.action}-{event.agent}",
                ),
            )
        )


def _churn_action(system: GridSystem, agent: str, action: str) -> Callable[[], None]:
    target = system.agents[agent]
    return target.deactivate if action == "crash" else target.reactivate


# ---------------------------------------------------------------- snapshots


def _pending(events: Dict[int, object]) -> List[dict]:
    return [
        {"index": index, "event": event.descriptor()}
        for index, event in sorted(events.items())
        if event.pending
    ]


def _write(run: _Run, path: str) -> str:
    """Write one resumable snapshot of *run*; returns its digest.

    Every mode writes the same sections; the ones a mode does not use
    hold an empty list or ``None``.
    """
    from repro.checkpoint.format import write_snapshot
    from repro.checkpoint.snapshot import (
        encode_config,
        encode_topology,
        encode_workflow_item,
        encode_workload_item,
        snapshot_system,
    )

    system, stream = run.system, run.workflows
    return write_snapshot(
        path,
        {
            "mode": run.mode,
            "config": encode_config(system.config),
            "topology": encode_topology(system.topology),
            "workload": [encode_workload_item(item) for item in run.items],
            "steps": run.steps,
            "system": snapshot_system(system),
            "arrivals": _pending(run.arrivals),
            "churn": {
                "crashes": run.crashes,
                "restarts": run.restarts,
                "events": [
                    {"agent": agent, "action": action, "event": event.descriptor()}
                    for agent, action, event in run.churn
                    if event.pending
                ],
            },
            "soak": None if run.soak is None else run.soak.encode(),
            "workflows": None if stream is None else {
                "items": [encode_workflow_item(item) for item in stream.items],
                "release_mode": stream.release_mode,
                "aware": stream.aware,
                "arrivals": _pending(run.workflow_arrivals),
                "coordinator": run.coordinator.snapshot_state(),
            },
        },
    )


def _restore(path: str, tracer: Optional[Tracer]) -> _Run:
    """Read the snapshot at *path*, rebuild and rewind its grid, re-arm its events."""
    from repro.checkpoint.format import read_snapshot
    from repro.checkpoint.snapshot import (
        decode_config,
        decode_topology,
        decode_workflow_item,
        decode_workload_item,
        restore_system,
    )
    from repro.experiments.soak import SoakProgress

    t_wall = time.perf_counter()
    payload = read_snapshot(path)
    mode = payload.get("mode")
    if mode not in _RULES:
        raise CheckpointError(
            f"snapshot mode {mode!r} is not one of {', '.join(_RULES)}"
        )
    system = build_grid(
        decode_config(payload["config"]),
        decode_topology(payload["topology"]),
        tracer=tracer,
    )
    restore_system(system, payload["system"])
    stream = payload["workflows"]
    run = _Run(
        mode,
        system,
        [decode_workload_item(raw) for raw in payload["workload"]],
        None if stream is None else WorkflowStream(
            items=tuple(decode_workflow_item(raw) for raw in stream["items"]),
            release_mode=str(stream["release_mode"]),
            aware=bool(stream["aware"]),
        ),
        None if payload["soak"] is None else SoakProgress.decode(payload["soak"]),
        steps=int(payload["steps"]),
        t_wall=t_wall,
    )
    sim = system.sim
    for entry in payload["arrivals"]:
        index = int(entry["index"])
        run.arrivals[index] = sim.restore_event(entry["event"], _arrival(run, index))
    run.arrived = len(run.items) - len(run.arrivals)
    churn = payload["churn"]
    run.crashes, run.restarts = int(churn["crashes"]), int(churn["restarts"])
    for entry in churn["events"]:
        agent, action = str(entry["agent"]), str(entry["action"])
        run.churn.append(
            (
                agent,
                action,
                sim.restore_event(entry["event"], _churn_action(system, agent, action)),
            )
        )
    if stream is not None:
        run.coordinator.restore_state(stream["coordinator"], targets=system.agents)
        for entry in stream["arrivals"]:
            index = int(entry["index"])
            run.workflow_arrivals[index] = sim.restore_event(
                entry["event"], _workflow_arrival(run, index)
            )
    return run


# ----------------------------------------------------------------- results


def _collect(run: _Run) -> Union[ExperimentResult, DegradedRun, SoakResult]:
    """The finished run's result, in its mode's shape."""
    system = run.system
    wall_seconds = time.perf_counter() - run.t_wall
    if run.mode == "soak":
        return run.soak.result(system, run.steps, wall_seconds)
    records: List[CompletionRecord] = []
    busy, nodes = {}, {}
    for name, scheduler in system.schedulers.items():
        records.extend(records_from_tasks(scheduler.executor.completed_tasks))
        busy[name] = scheduler.executor.busy_intervals
        nodes[name] = scheduler.resource.size
    degraded = run.mode == "degraded"
    # The observation period ``t``: the latest completion, as the paper
    # measures final scheduling scenarios — except that a degraded run is
    # observed to the clock, since it may complete nothing at all.
    metrics = compute_metrics(
        records, busy, nodes, horizon=max(system.sim.now, 1e-9) if degraded else None
    )
    result = ExperimentResult(
        config=system.config,
        metrics=metrics,
        records=records,
        workload=run.items,
        agent_stats={name: agent.stats for name, agent in system.agents.items()},
        cache_stats=system.evaluator.cache.stats,
        messages_sent=system.transport.sent,
        rejected_count=len(system.portal.failures()),
        wall_seconds=wall_seconds,
        messages_delivered=system.transport.delivered,
        rng_digest=system.rngs.state_digest() if system.rngs is not None else "",
        steps=run.steps,
        workflows=_outcomes(run),
    )
    if not degraded:
        return result
    successes = system.portal.successes()
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
        crashes=run.crashes,
        restarts=run.restarts,
        fault_dropped=system.transport.fault_dropped_count,
        membership=(
            MembershipSummary.from_system(system)
            if system.config.membership.enabled
            else None
        ),
    )


def _outcomes(run: _Run) -> Tuple[WorkflowOutcome, ...]:
    if run.coordinator is None:
        return ()
    results = run.system.portal.results
    return tuple(
        WorkflowOutcome(
            workflow_id=workflow_id,
            deadline=workflow.deadline,
            completion_time=workflow.completion_time(results),
            tasks_released=len(workflow.released),
            tasks_succeeded=len(workflow.sources),
        )
        for workflow_id, workflow in run.coordinator.runs.items()
    )
