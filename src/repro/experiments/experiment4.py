"""Experiment 4 — graceful degradation under injected faults.

The paper's three experiments assume a benign LAN.  Experiment 4 (our
robustness extension) re-runs the §4.1 case-study workload on the same
12-agent grid while the fault fabric (:mod:`repro.net.faults`) injects
message loss, latency jitter, and agent churn, across a grid of
``loss rate × churn rate`` operating points.  Each point reports the
request **completion rate**, the **deadline-met rate**, the §3.3
balancing metrics, and the resilience layer's counters (retries,
reroutes, give-ups), for either the resilient protocol
(ACK + retry + registry TTL) or the paper's fire-and-forget baseline
(``resilient=False`` — the no-retry ablation).

Every point runs on :func:`~repro.experiments.runner.run_degraded`, the
horizon-based runner that counts unresolved requests instead of raising
on them — message loss produces exactly those.  :data:`EXPERIMENT4` is the
tournament spec behind ``python -m repro experiment4``: the cells are the
``loss × churn`` pairs (or one fault plan × churn), the contenders the
two protocols.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.agents.resilience import ResilienceConfig
from repro.experiments.casestudy import GridTopology, case_study_topology
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import RequestRates, run_degraded, seeded_workload
from repro.experiments.tournament import (
    Tournament,
    TournamentResult,
    argument,
    fraction,
    rounded,
)
from repro.experiments.workload import WorkloadItem
from repro.metrics.records import ResilienceCounters
from repro.scheduling.scheduler import SchedulingPolicy

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.net.faults import ChurnSpec, FaultPlanSpec

__all__ = [
    "DEFAULT_LOSS_RATES",
    "DEFAULT_CHURN_RATES",
    "CONTENDERS",
    "EXPERIMENT4",
    "Experiment4Cell",
    "Experiment4Point",
    "degradation_config",
    "experiment4_base_config",
]

#: The default degradation grid: loss rates per message ...
DEFAULT_LOSS_RATES: Tuple[float, ...] = (0.0, 0.05, 0.1, 0.2)
#: ... crossed with the fraction of (non-head) agents that crash once.
DEFAULT_CHURN_RATES: Tuple[float, ...] = (0.0, 0.25)

#: The protocols every cell replays: ACK + retry + registry TTL, and the
#: paper's fire-and-forget baseline (the no-retry ablation).
CONTENDERS: Tuple[str, ...] = ("resilient", "no-retry")


def experiment4_base_config(
    *, master_seed: int = 2003, request_count: int = 600
) -> ExperimentConfig:
    """Experiment 3's configuration (GA + agents), the substrate faults act on."""
    return ExperimentConfig(
        name="experiment-4",
        policy=SchedulingPolicy.GA,
        agents_enabled=True,
        master_seed=master_seed,
        request_count=request_count,
    )


def degradation_config(
    base: ExperimentConfig,
    *,
    loss: float = 0.0,
    churn_rate: float = 0.0,
    jitter: float = 0.0,
    resilient: bool = True,
    fault_spec: Optional[FaultPlanSpec] = None,
    churn_spec: Optional[ChurnSpec] = None,
) -> ExperimentConfig:
    """One operating point's configuration.

    ``fault_spec``/``churn_spec`` override the simple ``loss``/``jitter``/
    ``churn_rate`` knobs when a richer plan (link faults, partitions,
    custom downtime) is wanted.  ``resilient=False`` keeps the paper's
    fire-and-forget protocol — the ablation every resilient point is
    measured against.
    """
    from repro.net.faults import ChurnSpec, FaultPlanSpec

    faults = (
        fault_spec
        if fault_spec is not None
        else FaultPlanSpec(drop_probability=loss, latency_jitter=jitter)
    )
    churn = churn_spec
    if churn is None and churn_rate > 0:
        churn = ChurnSpec(rate=churn_rate)
    resilience = (
        ResilienceConfig.resilient(base.pull_interval)
        if resilient
        else ResilienceConfig()
    )
    mode = "resilient" if resilient else "no-retry"
    return replace(
        base,
        name=f"{base.name}-loss{faults.drop_probability:g}"
        f"-churn{(churn.rate if churn else 0.0):g}-{mode}",
        faults=faults,
        churn=churn,
        resilience=resilience,
    )


@dataclass(frozen=True)
class Experiment4Point(RequestRates):
    """One (operating point, protocol) entry of the degradation grid."""

    loss_rate: float
    churn_rate: float
    resilient: bool
    submitted: int
    succeeded: int
    failed: int
    unresolved: int
    deadline_met: int
    epsilon: float
    beta_percent: float
    counters: ResilienceCounters
    crashes: int
    restarts: int
    fault_dropped: int
    messages_sent: int
    messages_delivered: int
    wall_seconds: float


@dataclass(frozen=True)
class Experiment4Cell:
    """One (loss, churn) operating point: a config per protocol, one workload."""

    name: str
    churn_rate: float
    configs: Dict[str, ExperimentConfig]
    topology: GridTopology
    workload: Tuple[WorkloadItem, ...]


def _contenders(args) -> Tuple[str, ...]:
    return ("no-retry",) if args.no_retry else CONTENDERS


def _cells(args) -> List[Experiment4Cell]:
    """The grid, churn-major; every cell replays one seeded workload.

    With ``--fault-plan`` the loss axis is that single plan.
    """
    base = experiment4_base_config(
        master_seed=args.seed, request_count=args.requests
    )
    topology = case_study_topology()
    workload = tuple(seeded_workload(base, topology))
    fault_spec: Optional[FaultPlanSpec] = None
    if args.fault_plan:
        from repro.net.faults import FaultPlanSpec

        with open(args.fault_plan, encoding="utf-8") as handle:
            fault_spec = FaultPlanSpec.from_json(handle.read())
    losses = args.loss if fault_spec is None else [fault_spec.drop_probability]
    return [
        Experiment4Cell(
            name=f"loss{loss:g}-churn{churn:g}",
            churn_rate=churn,
            configs={
                contender: degradation_config(
                    base,
                    loss=loss,
                    churn_rate=churn,
                    jitter=args.jitter,
                    resilient=contender == "resilient",
                    fault_spec=fault_spec,
                )
                for contender in _contenders(args)
            },
            topology=topology,
            workload=workload,
        )
        for churn in args.churn
        for loss in losses
    ]


def _run_point(cell: Experiment4Cell, contender: str) -> Experiment4Point:
    config = cell.configs[contender]
    run = run_degraded(config, cell.topology, workload=list(cell.workload))
    assert config.faults is not None
    return Experiment4Point(
        loss_rate=config.faults.drop_probability,
        churn_rate=cell.churn_rate,
        resilient=contender == "resilient",
        submitted=run.submitted,
        succeeded=run.succeeded,
        failed=run.failed,
        unresolved=run.unresolved,
        deadline_met=run.deadline_met,
        epsilon=run.result.metrics.total.epsilon,
        beta_percent=run.result.metrics.total.beta_percent,
        counters=run.counters,
        crashes=run.crashes,
        restarts=run.restarts,
        fault_dropped=run.fault_dropped,
        messages_sent=run.result.messages_sent,
        messages_delivered=run.result.messages_delivered,
        wall_seconds=run.result.wall_seconds,
    )


def _checks(result: TournamentResult, args) -> List[str]:
    """Full completion at zero faults, retries under loss, and the
    resilient protocol never below the ablation — strictly above it at
    the worst (highest loss, then churn) point."""
    resilient = "resilient" in _contenders(args)
    main = "resilient" if resilient else "no-retry"
    failures = []
    for cell in result.cells:
        p = result.point(cell, main)
        if p.loss_rate == 0.0 and p.churn_rate == 0.0 and p.completion_rate < 1.0:
            failures.append(
                f"zero-fault point completed only {p.succeeded}/{p.submitted}"
            )
    if not resilient:
        return failures
    pairs = [
        (result.point(cell, "resilient"), result.point(cell, "no-retry"))
        for cell in result.cells
    ]
    lossy = [p for p, _ in pairs if p.loss_rate > 0]
    if lossy and not any(p.counters.retries > 0 for p in lossy):
        failures.append("no retries observed under message loss")
    for p, a in pairs:
        if p.succeeded < a.succeeded:
            failures.append(
                f"resilient completed {p.succeeded} < ablation {a.succeeded} "
                f"at loss={p.loss_rate}, churn={p.churn_rate}"
            )
    worst, worst_abl = max(
        pairs, key=lambda pair: (pair[0].loss_rate, pair[0].churn_rate)
    )
    if worst.fault_dropped > 0 and worst.succeeded <= worst_abl.succeeded:
        failures.append(
            "resilient protocol not strictly better at the worst point "
            f"({worst.succeeded} vs {worst_abl.succeeded})"
        )
    return failures


EXPERIMENT4 = Tournament(
    name="experiment4",
    title="Experiment 4: degradation under injected faults",
    help="degradation study: case-study workload under loss/churn/jitter",
    invariants="the robustness invariants hold (full completion at zero "
    "faults; retries under loss; resilient >= ablation everywhere)",
    arguments=(
        argument("--requests", type=int, default=600),
        argument("--seed", type=int, default=2003),
        argument("--loss", type=float, nargs="+",
                 default=list(DEFAULT_LOSS_RATES), metavar="P",
                 help="per-message drop probabilities to sweep"),
        argument("--churn", type=float, nargs="+",
                 default=list(DEFAULT_CHURN_RATES), metavar="R",
                 help="fractions of (non-head) agents crashed once"),
        argument("--jitter", type=float, default=0.0, metavar="SECONDS",
                 help="max uniform extra latency per message"),
        argument("--no-retry", action="store_true",
                 help="run only the fire-and-forget ablation "
                 "(default: resilient protocol plus the ablation)"),
        argument("--fault-plan", metavar="PATH",
                 help="JSON FaultPlanSpec replacing the --loss sweep "
                 "(link faults, partitions, ...)"),
    ),
    header=(("request_count", "requests"), ("master_seed", "seed")),
    cells=_cells,
    contenders=_contenders,
    run_point=_run_point,
    columns=(
        ("loss", lambda p: f"{p.loss_rate:.0%}"),
        ("churn", lambda p: f"{p.churn_rate:.0%}"),
        ("protocol", lambda p: "resilient" if p.resilient else "no-retry"),
        ("completed", lambda p: fraction(p.succeeded, p.submitted)),
        ("met deadline", lambda p: f"{p.deadline_met_rate:.0%}"),
        ("unresolved", lambda p: p.unresolved),
        ("retries", lambda p: p.counters.retries),
        ("reroutes", lambda p: p.counters.reroutes),
        ("gave up", lambda p: p.counters.gave_up),
        ("crashes", lambda p: p.crashes),
        ("ε (s)", lambda p: rounded(p.epsilon)),
        ("β (%)", lambda p: rounded(p.beta_percent)),
    ),
    checks=_checks,
)
