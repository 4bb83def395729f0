"""Experiment 5 — availability with a self-healing hierarchy.

Experiment 4 measured graceful degradation of the *protocol* (ACK/retry
vs fire-and-forget) under message loss and transient churn.  Experiment 5
measures the *hierarchy*: what a permanently crashed coordinator costs,
and how much of that cost the membership layer's failure detection and
deterministic re-parenting (:mod:`repro.agents.membership`,
:mod:`repro.agents.healing`) buys back.

The study is a grid of ``coordinator-churn rate × straggler count``
operating points, each run twice:

* **healing** — membership enabled with the full ADOPT/ADOPTED repair
  protocol: orphaned subtrees re-attach (eldest sibling, else
  grandparent) and replay their service advertisements, so eq.-(10)
  discovery keeps balancing load across the repaired tree;
* **static** — the ablation: the same failure detector (so performance-
  info quarantine is identical) but ``heal=False``; an orphaned subtree
  self-severs and absorbs every request locally for the rest of the run.

Coordinator crashes are permanent (the churn downtime outlives any run)
and target only agents with children — losing a leaf never orphans
anyone.  Stragglers are grey failures on leaf agents: their sends arrive
seconds late and their tasks run slower than predicted
(:class:`~repro.net.faults.StragglerFault`).  The detector thresholds are
tuned so a straggler trips *suspicion* but never *confirmation*: the
straggler-only column doubles as the false-positive probe, asserting
zero confirmed deaths when nobody actually died.

Reported per point: the request success rates (completion, and the
stricter deadline-met SLO the healing/static comparison turns on), the
§3.3 balancing metrics, detection counters (suspects / recoveries /
confirms), and the repair latency (mean seconds from confirmed death to
re-parented).  All points replay one identical seeded workload, so every
difference is attributable to the injected failures and the healing knob.

:data:`EXPERIMENT5` is the tournament spec behind ``python -m repro
experiment5``: the cells are the ``churn × stragglers`` pairs, the
contenders the two arms.  At 500–1000 agents, ``python -m repro scenario
--chaos coordinator-churn`` folds the same failures into a generated grid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from repro.agents.membership import MembershipConfig
from repro.agents.resilience import ResilienceConfig
from repro.errors import ExperimentError
from repro.experiments.casestudy import GridTopology, case_study_topology
from repro.experiments.config import ExperimentConfig
from repro.experiments.experiment4 import experiment4_base_config
from repro.experiments.runner import (
    MembershipSummary,
    RequestRates,
    run_degraded,
    seeded_workload,
)
from repro.experiments.tournament import (
    Tournament,
    TournamentResult,
    argument,
    fraction,
    rounded,
)
from repro.experiments.workload import WorkloadItem

__all__ = [
    "DEFAULT_CHURN_RATES",
    "DEFAULT_STRAGGLER_COUNTS",
    "STRAGGLER_RESPONSE_DELAY",
    "STRAGGLER_SERVICE_FACTOR",
    "PERMANENT_DOWNTIME",
    "CONTENDERS",
    "EXPERIMENT5",
    "Experiment5Cell",
    "Experiment5Point",
    "experiment5_config",
    "leaf_names",
]

#: Default churn axis: no churn, and half the coordinators crashing.
DEFAULT_CHURN_RATES: Tuple[float, ...] = (0.0, 0.5)
#: Default straggler axis: clean, and two grey leaves.
DEFAULT_STRAGGLER_COUNTS: Tuple[int, ...] = (0, 2)

#: The arms every cell replays: full repair, and the static ablation.
CONTENDERS: Tuple[str, ...] = ("healing", "static")

#: Grey-failure severity (see the detector-tuning note in
#: :class:`~repro.agents.membership.MembershipConfig`): 3 s mean response
#: delay yields worst-case heartbeat gaps of ~6.5 s — over the 6 s
#: suspicion threshold sometimes, far under the 15 s confirmation one
#: always — and a 2× service factor quietly breaks PACE predictions.
STRAGGLER_RESPONSE_DELAY = 3.0
STRAGGLER_SERVICE_FACTOR = 2.0

#: Crash "downtime" that outlives any run: coordinator deaths are
#: permanent, which is the scenario healing exists for.
PERMANENT_DOWNTIME = 1e9


def leaf_names(topology: GridTopology) -> List[str]:
    """Agents with no children, in the topology's agent order."""
    parents = {p for p in topology.parent_of.values() if p is not None}
    return [n for n in topology.agent_names if n not in parents]


def experiment5_config(
    base: ExperimentConfig,
    topology: GridTopology,
    *,
    churn_rate: float = 0.0,
    straggler_count: int = 0,
    healing: bool = True,
) -> ExperimentConfig:
    """One operating point's configuration.

    The straggler nodes are the *last* ``straggler_count`` leaves of the
    topology — deterministic, and never routing-interior agents.  Both
    arms (healing and static) run identical detection; only the repair
    protocol differs.
    """
    from repro.net.faults import ChurnSpec, FaultPlanSpec, StragglerFault

    leaves = leaf_names(topology)
    if straggler_count > len(leaves):
        raise ExperimentError(
            f"straggler_count {straggler_count} exceeds the {len(leaves)} leaves"
        )
    stragglers = tuple(
        StragglerFault(
            node=name,
            response_delay=STRAGGLER_RESPONSE_DELAY,
            service_factor=STRAGGLER_SERVICE_FACTOR,
        )
        for name in leaves[len(leaves) - straggler_count:]
    )
    faults = FaultPlanSpec(stragglers=stragglers) if stragglers else None
    churn = (
        ChurnSpec(
            rate=churn_rate,
            downtime=PERMANENT_DOWNTIME,
            target="coordinators",
        )
        if churn_rate > 0
        else None
    )
    mode = "healing" if healing else "static"
    return replace(
        base,
        name=f"{base.name}-churn{churn_rate:g}-grey{straggler_count}-{mode}",
        faults=faults,
        churn=churn,
        resilience=ResilienceConfig(
            enabled=True, registry_ttl=3.0 * base.pull_interval
        ),
        membership=MembershipConfig(enabled=True, heal=healing),
    )


@dataclass(frozen=True)
class Experiment5Point(RequestRates):
    """One (operating point, arm) entry of the availability grid."""

    churn_rate: float
    straggler_count: int
    healing: bool
    submitted: int
    succeeded: int
    failed: int
    unresolved: int
    deadline_met: int
    epsilon: float
    upsilon_percent: float
    beta_percent: float
    crashes: int
    membership: MembershipSummary
    wall_seconds: float


@dataclass(frozen=True)
class Experiment5Cell:
    """One (churn, stragglers) operating point: a config per arm, one workload."""

    name: str
    churn_rate: float
    straggler_count: int
    configs: Dict[str, ExperimentConfig]
    topology: GridTopology
    workload: Tuple[WorkloadItem, ...]


def _cells(args) -> List[Experiment5Cell]:
    """The grid, churn-major; every cell replays one seeded workload."""
    base = replace(
        experiment4_base_config(
            master_seed=args.seed, request_count=args.requests
        ),
        name="experiment-5",
    )
    topology = case_study_topology()
    workload = tuple(seeded_workload(base, topology))
    return [
        Experiment5Cell(
            name=f"churn{churn:g}-grey{stragglers}",
            churn_rate=churn,
            straggler_count=stragglers,
            configs={
                arm: experiment5_config(
                    base,
                    topology,
                    churn_rate=churn,
                    straggler_count=stragglers,
                    healing=arm == "healing",
                )
                for arm in CONTENDERS
            },
            topology=topology,
            workload=workload,
        )
        for churn in args.churn
        for stragglers in args.stragglers
    ]


def _run_point(cell: Experiment5Cell, arm: str) -> Experiment5Point:
    run = run_degraded(
        cell.configs[arm], cell.topology, workload=list(cell.workload)
    )
    assert run.membership is not None  # membership always on here
    return Experiment5Point(
        churn_rate=cell.churn_rate,
        straggler_count=cell.straggler_count,
        healing=arm == "healing",
        submitted=run.submitted,
        succeeded=run.succeeded,
        failed=run.failed,
        unresolved=run.unresolved,
        deadline_met=run.deadline_met,
        epsilon=run.result.metrics.total.epsilon,
        upsilon_percent=run.result.metrics.total.upsilon_percent,
        beta_percent=run.result.metrics.total.beta_percent,
        crashes=run.crashes,
        membership=run.membership,
        wall_seconds=run.result.wall_seconds,
    )


def _checks(result: TournamentResult, args) -> List[str]:
    """No confirmed death without a crash, every orphan repaired, and
    healing strictly ahead of static on the deadline SLO in every churn
    cell.  The SLO, not completion, is what healing buys: an orphaned
    subtree still completes requests by absorbing them locally, but it
    can no longer balance load, and deadlines pay for that."""
    failures = []
    for p in result.points:
        m = p.membership
        if p.crashes == 0 and m.confirms > 0:
            failures.append(
                f"{m.confirms} confirmed deaths with zero crashes "
                f"(churn={p.churn_rate}, grey={p.straggler_count}, "
                f"healing={p.healing}) — false positives"
            )
        if p.healing and m.orphaned > m.adoptions_completed + m.promotions:
            failures.append(
                f"unrepaired orphans at churn={p.churn_rate}, "
                f"grey={p.straggler_count}: {m.orphaned} orphaned, "
                f"{m.adoptions_completed} adopted, {m.promotions} promoted"
            )
    for cell in result.cells:
        healed = result.point(cell, "healing")
        static = result.point(cell, "static")
        advantage = healed.deadline_met_rate - static.deadline_met_rate
        if healed.churn_rate > 0 and advantage <= 0:
            failures.append(
                f"healing does not beat the static hierarchy at "
                f"churn={healed.churn_rate}, grey={healed.straggler_count} "
                f"(deadline-SLO delta {advantage:+.1%})"
            )
    return failures


EXPERIMENT5 = Tournament(
    name="experiment5",
    title="Experiment 5: availability with a self-healing hierarchy",
    help="availability study: coordinator churn x grey failures, "
    "self-healing hierarchy vs static ablation",
    invariants="the healing invariants hold (healing strictly beats static "
    "on the deadline SLO in every churn cell; zero confirmed deaths without "
    "a crash; every orphan repaired)",
    arguments=(
        argument("--requests", type=int, default=600),
        argument("--seed", type=int, default=2003),
        argument("--churn", type=float, nargs="+",
                 default=list(DEFAULT_CHURN_RATES), metavar="R",
                 help="fractions of coordinators crashed permanently"),
        argument("--stragglers", type=int, nargs="+",
                 default=list(DEFAULT_STRAGGLER_COUNTS), metavar="N",
                 help="numbers of grey (slow, not dead) leaf agents"),
    ),
    header=(("request_count", "requests"), ("master_seed", "seed")),
    cells=_cells,
    contenders=lambda args: CONTENDERS,
    run_point=_run_point,
    columns=(
        ("churn", lambda p: f"{p.churn_rate:.0%}"),
        ("grey", lambda p: p.straggler_count),
        ("healing", lambda p: "on" if p.healing else "off"),
        ("completed", lambda p: fraction(p.succeeded, p.submitted)),
        ("met deadline", lambda p: f"{p.deadline_met_rate:.0%}"),
        ("crashes", lambda p: p.crashes),
        ("suspects", lambda p: p.membership.suspects),
        ("confirms", lambda p: p.membership.confirms),
        ("orphaned", lambda p: p.membership.orphaned),
        ("repaired", lambda p: p.membership.adoptions_completed
         + p.membership.promotions),
        ("repair (s)", lambda p: f"{p.membership.mean_repair_seconds:.2f}"
         if p.membership.repair_count else "-"),
        ("ε (s)", lambda p: rounded(p.epsilon)),
        ("β (%)", lambda p: rounded(p.beta_percent)),
    ),
    checks=_checks,
)
