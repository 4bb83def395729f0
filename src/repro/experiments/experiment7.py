"""Experiment 7 — precedence-aware vs precedence-naive DAG scheduling.

Experiments 1–6 schedule independent tasks; Experiment 7 measures the
workflow extension (:mod:`repro.tasks.graph`, :mod:`repro.tasks.workflow`)
on streams of task graphs with real data movement.  Each cell replays one
seeded workflow stream twice:

``aware``
    The precedence-aware configuration: per-node durations from the PACE
    evaluator turn into b-level priorities and distributed per-node
    deadlines (``D - (b_level - t_node)``), and eq.-(10) discovery gains
    the data-gravity term (``DiscoveryConfig.data_gravity``) so routing
    charges each candidate the staging cost of the inputs it does not
    hold.

``naive``
    The precedence-naive baseline: every node carries priority ``0.0``
    and the whole-graph deadline, and routing ignores data placement.
    Precedence is still *enforced* (the gates and transfers are part of
    the fabric, not the contender) — only the scheduling metadata is
    blind to it.

The standing cells are graph shapes × arrival processes on the §4.1
case-study grid in ``staged`` release mode (fork-join / map-reduce /
montage × uniform / poisson), plus one ``pipeline`` cell that runs the
mixed stream in ``eager`` mode on agent-less single clusters — the GA
optimising whole graphs under in-scheduler precedence constraints.

Reported per (cell × mode) point: workflow completion and deadline-SLO
rates, task counts, bytes moved across clusters (sum of ``dag.transfer``
sizes), and the §3.3 balancing metrics (ε, υ, β).  Every run is traced,
and every trace goes through :func:`~repro.obs.check.check_trace`, whose
``dispatch-after-inputs`` rule proves no task started before all parent
outputs arrived at its cluster.

:data:`EXPERIMENT7` is the tournament spec behind ``python -m repro
experiment7``: the cells are the standing cells, the contenders the two
modes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from repro.errors import ExperimentError
from repro.experiments.casestudy import GridTopology, case_study_topology
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import WorkflowStream, run_experiment
from repro.experiments.scenarios import (
    ScenarioSpec,
    WorkflowItem,
    generate_workflows,
)
from repro.experiments.tournament import (
    Tournament,
    TournamentResult,
    argument,
    fraction,
    rounded,
)
from repro.scheduling.scheduler import SchedulingPolicy
from repro.tasks.graph import WORKFLOW_SHAPES

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.obs.check import Violation

__all__ = [
    "ARRIVALS",
    "CELLS",
    "MODES",
    "EXPERIMENT7",
    "Experiment7Cell",
    "Experiment7Point",
    "experiment7_cells",
    "slo_regressions",
]

#: Arrival processes the standing cells sweep.
ARRIVALS: Tuple[str, ...] = ("uniform", "poisson")

#: The two contenders each cell replays.
MODES: Tuple[str, ...] = ("aware", "naive")

#: Standing cells: every shape × arrival in staged mode, plus the eager
#: single-cluster pipeline cell.
CELLS: Tuple[str, ...] = tuple(
    f"{shape}-{arrival}" for shape in WORKFLOW_SHAPES for arrival in ARRIVALS
) + ("pipeline",)

#: Background-request budget per workflow — sets the stream's span (the
#: mean workflow gap is ``_SPAN_REQUESTS / rate`` seconds), chosen so
#: consecutive graphs overlap without drowning the grid.
_SPAN_REQUESTS = 25

#: Whole-graph deadline multiplier.  Tight enough that the naive
#: baseline misses deadlines the aware contender makes; the separation
#: is asserted by ``repro.cli experiment7 --check``.
_DEADLINE_SCALE = 0.7


@dataclass(frozen=True)
class Experiment7Cell:
    """One standing cell: its config, release mode, and workflow stream."""

    name: str
    shape: str  # "fork-join" | "map-reduce" | "montage" | "mixed"
    arrival: str
    release_mode: str  # "staged" | "eager"
    config: ExperimentConfig
    topology: GridTopology
    workflows: Tuple[WorkflowItem, ...]


def experiment7_cells(
    *,
    workflow_count: int = 8,
    master_seed: int = 2003,
    cells: Sequence[str] = CELLS,
) -> List[Experiment7Cell]:
    """Build the requested cells, each with one seeded workflow stream.

    Every cell lives on the case-study grid; the stream is a pure
    function of ``(cell name, workflow_count, master_seed)`` via
    :func:`~repro.experiments.scenarios.generate_workflows`.
    """
    unknown = [c for c in cells if c not in CELLS]
    if unknown:
        raise ExperimentError(f"unknown experiment-7 cells {unknown!r}")
    if workflow_count < 1:
        raise ExperimentError(
            f"workflow_count must be >= 1, got {workflow_count}"
        )
    topo = case_study_topology()
    built: List[Experiment7Cell] = []
    for name in cells:
        if name == "pipeline":
            shape, arrival, release_mode = "mixed", "uniform", "eager"
        else:
            shape, arrival = name.rsplit("-", 1)
            release_mode = "staged"
        spec = ScenarioSpec(
            name=f"experiment-7-{name}",
            agent_count=len(topo.agent_names),
            request_count=workflow_count * _SPAN_REQUESTS,
            arrival=arrival,
            master_seed=master_seed,
            deadline_scale=_DEADLINE_SCALE,
            workflow_count=workflow_count,
            workflow_shape=shape,
        )
        config = ExperimentConfig(
            name=f"experiment-7-{name}",
            policy=SchedulingPolicy.GA,
            agents_enabled=(release_mode == "staged"),
            request_count=spec.request_count,
            master_seed=master_seed,
        )
        built.append(
            Experiment7Cell(
                name=name,
                shape=shape,
                arrival=arrival,
                release_mode=release_mode,
                config=config,
                topology=topo,
                workflows=tuple(generate_workflows(spec, topo)),
            )
        )
    return built


@dataclass(frozen=True)
class Experiment7Point:
    """One (cell × mode) entry of the comparison."""

    cell: str
    mode: str  # "aware" | "naive"
    workflows: int
    workflows_succeeded: int
    deadline_met: int
    tasks_submitted: int
    tasks_succeeded: int
    bytes_moved: float
    epsilon: float
    upsilon_percent: float
    beta_percent: float
    wall_seconds: float
    dag_records: Dict[str, int]
    #: The run's trace-checker findings; ``--check`` reports them, the
    #: JSON document leaves them out.
    violations: Tuple[Violation, ...] = field(
        default=(), metadata={"json": False}
    )


def _run_point(cell: Experiment7Cell, mode: str) -> Experiment7Point:
    """Replay *cell*'s workflow stream under one contender, traced and checked."""
    from repro.obs.check import check_trace
    from repro.obs.trace import MemorySink, Tracer

    t_wall = time.perf_counter()
    config = replace(cell.config, name=f"{cell.config.name}-{mode}")
    if mode == "aware" and cell.release_mode == "staged":
        config = replace(
            config, discovery=replace(config.discovery, data_gravity=True)
        )
    tracer = Tracer(MemorySink())
    result = run_experiment(
        config,
        cell.topology,
        workload=[],
        workflows=WorkflowStream(
            cell.workflows, cell.release_mode, aware=(mode == "aware")
        ),
        tracer=tracer,
    )
    outcomes = result.workflows
    bytes_moved = 0.0
    dag_records: Dict[str, int] = {}
    for record in tracer.records:
        if record.kind.startswith("dag."):
            dag_records[record.kind] = dag_records.get(record.kind, 0) + 1
            if record.kind == "dag.transfer":
                bytes_moved += record.size
    return Experiment7Point(
        cell=cell.name,
        mode=mode,
        workflows=len(outcomes),
        workflows_succeeded=sum(1 for o in outcomes if o.succeeded),
        deadline_met=sum(1 for o in outcomes if o.deadline_met),
        tasks_submitted=sum(o.tasks_released for o in outcomes),
        tasks_succeeded=sum(o.tasks_succeeded for o in outcomes),
        bytes_moved=bytes_moved,
        epsilon=result.metrics.total.epsilon,
        upsilon_percent=result.metrics.total.upsilon_percent,
        beta_percent=result.metrics.total.beta_percent,
        wall_seconds=time.perf_counter() - t_wall,
        dag_records=dag_records,
        violations=tuple(check_trace(tracer.records)),
    )


def slo_regressions(result: TournamentResult) -> List[str]:
    """Cells where the aware contender meets fewer deadlines than naive."""
    out = []
    for cell in result.cells:
        aware, naive = result.point(cell, "aware"), result.point(cell, "naive")
        if aware.deadline_met < naive.deadline_met:
            out.append(
                f"{cell}: aware met {aware.deadline_met} deadlines vs "
                f"naive {naive.deadline_met}"
            )
    return out


def _checks(result: TournamentResult, args) -> List[str]:
    """Clean traces, exercised gates, every workflow resolved, and aware
    never behind naive on the deadline SLO in a cell — ahead overall."""
    failures = []
    for p in result.points:
        for violation in p.violations:
            failures.append(
                f"{p.cell}/{p.mode} trace violates {violation.rule} "
                f"at t={violation.t:.3f}: {violation.message}"
            )
        if not p.dag_records.get("dag.ready"):
            failures.append(
                f"{p.cell}/{p.mode} run produced no dag.ready records — "
                "the precedence gates were not exercised"
            )
        if p.workflows_succeeded < p.workflows:
            failures.append(
                f"{p.cell}/{p.mode}: only {p.workflows_succeeded}/"
                f"{p.workflows} workflows completed"
            )
    for regression in slo_regressions(result):
        failures.append(f"aware lost the deadline SLO in {regression}")
    total = {
        mode: sum(p.deadline_met for p in result.points if p.mode == mode)
        for mode in MODES
    }
    if total["aware"] <= total["naive"]:
        failures.append(
            f"aware does not beat naive overall: {total['aware']} vs "
            f"{total['naive']} deadlines met"
        )
    return failures


EXPERIMENT7 = Tournament(
    name="experiment7",
    title="Experiment 7: precedence-aware vs naive DAG scheduling",
    help="DAG workloads: precedence-aware vs precedence-naive "
    "scheduling across graph shapes and arrival processes",
    invariants="the workflow invariants hold (no task dispatched before its "
    "inputs arrived; every workflow resolves; aware never loses to naive on "
    "the deadline SLO and beats it overall)",
    arguments=(
        argument("--workflows", type=int, default=8, metavar="N",
                 help="workflow instances per cell"),
        argument("--seed", type=int, default=2003),
        argument("--cells", nargs="+", default=None, choices=CELLS,
                 metavar="CELL", help="which standing cells to run (default: "
                 "all; see repro.experiments.experiment7.CELLS)"),
    ),
    header=(("workflow_count", "workflows"), ("master_seed", "seed")),
    cells=lambda args: experiment7_cells(
        workflow_count=args.workflows,
        master_seed=args.seed,
        cells=args.cells or CELLS,
    ),
    contenders=lambda args: MODES,
    run_point=_run_point,
    columns=(
        ("cell", lambda p: p.cell),
        ("mode", lambda p: p.mode),
        ("workflows", lambda p: fraction(p.workflows_succeeded, p.workflows)),
        ("met deadline", lambda p: fraction(p.deadline_met, p.workflows)),
        ("tasks", lambda p: f"{p.tasks_succeeded}/{p.tasks_submitted}"),
        ("bytes moved", lambda p: rounded(p.bytes_moved, 1)),
        ("ε (s)", lambda p: rounded(p.epsilon)),
        ("υ (%)", lambda p: rounded(p.upsilon_percent)),
        ("β (%)", lambda p: rounded(p.beta_percent)),
        ("wall (s)", lambda p: f"{p.wall_seconds:.2f}"),
    ),
    checks=_checks,
)
