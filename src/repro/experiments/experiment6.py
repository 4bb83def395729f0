"""Experiment 6 — the standing global-policy tournament.

Experiments 1–3 fixed the *global* dispatch rule to the paper's eq. (10)
and varied the local scheduler; Experiments 4–5 stressed the fabric and
the hierarchy under that same rule.  Experiment 6 makes the dispatch rule
itself the variable: every :data:`~repro.agents.policy.POLICY_KINDS`
policy — ``eq10`` (the paper), ``auction`` (contract-net CFP/bid), and
``reservation`` (advance freetime-window booking) — runs the identical
seeded workload across four standing cells:

* **clean** — the §4.1 case-study grid, no faults.  The eq10 point of
  this cell is the parity anchor: it must be byte-identical to a run of
  the default configuration (the pre-policy-layer seed behaviour), which
  :func:`verify_clean_parity` asserts on traces, metrics, and RNG digests.
* **loss** — 20 % per-message drop with the resilient protocol, probing
  how each policy's extra round trips (bids, reservations) survive loss.
* **bursty** — a generated MMPP scenario on a larger grid
  (:mod:`repro.experiments.scenarios`), probing behaviour when arrivals
  cluster far above the mean rate.
* **churn** — half the coordinators crash permanently with healing on,
  probing each policy's release/settlement paths on confirmed death.

Reported per (policy × cell) point: completion and deadline-SLO rates
and the §3.3 balancing metrics (ε, υ, β).  Every cell replays one
identical workload across the three policies, so within a cell every
difference is attributable to the dispatch rule alone.

:data:`EXPERIMENT6` is the tournament spec behind ``python -m repro
experiment6``: the cells are the standing cells, the contenders the
policies.  :func:`run_policy_invariants` backs its ``--check``: it
traces an auction run on the clean cell and a reservation run on the
churn cell, feeds both streams through
:func:`~repro.obs.check.check_trace` (which enforces every-auction-
settles-or-times-out, no-double-booked-windows, and reservations-
released-on-confirmed-death), and requires the runs to actually exercise
the protocols (at least one settle, at least one booking).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from repro.agents.policy import POLICY_KINDS, GlobalPolicyConfig
from repro.errors import ExperimentError
from repro.experiments.casestudy import GridTopology, case_study_topology
from repro.experiments.config import ExperimentConfig
from repro.experiments.experiment4 import (
    degradation_config,
    experiment4_base_config,
)
from repro.experiments.experiment5 import experiment5_config
from repro.experiments.runner import (
    DegradedRun,
    RequestRates,
    run_degraded,
    seeded_workload,
)
from repro.experiments.scenarios import ScenarioSpec, generate_scenario
from repro.experiments.tournament import (
    Tournament,
    TournamentResult,
    argument,
    fraction,
    rounded,
)
from repro.experiments.workload import WorkloadItem
from repro.scheduling.scheduler import SchedulingPolicy

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.obs.check import Violation
    from repro.obs.records import TraceRecord

__all__ = [
    "CELLS",
    "DEFAULT_BURSTY_AGENTS",
    "LOSS_RATE",
    "CHURN_RATE",
    "EXPERIMENT6",
    "Experiment6Cell",
    "Experiment6Point",
    "InvariantRun",
    "experiment6_cells",
    "run_policy_invariants",
    "verify_clean_parity",
]

#: The standing cells, in tournament order.
CELLS: Tuple[str, ...] = ("clean", "loss", "bursty", "churn")

#: Loss cell severity — the worst point of Experiment 4's default grid.
LOSS_RATE = 0.2
#: Churn cell severity — Experiment 5's default coordinator-churn rate.
CHURN_RATE = 0.5
#: Bursty cell grid size.  Five times the case study, small enough that
#: the full 3-policy tournament stays interactive.
DEFAULT_BURSTY_AGENTS = 60


@dataclass(frozen=True)
class Experiment6Cell:
    """One standing cell: its base config and the shared workload.

    ``config`` still carries the *default* global policy; the tournament
    stamps each contender in with :func:`dataclasses.replace`.
    """

    name: str
    config: ExperimentConfig
    topology: GridTopology
    workload: Tuple[WorkloadItem, ...]


def experiment6_cells(
    *,
    request_count: int = 600,
    master_seed: int = 2003,
    bursty_agents: int = DEFAULT_BURSTY_AGENTS,
    cells: Sequence[str] = CELLS,
) -> List[Experiment6Cell]:
    """Build the requested cells, each with one seeded shared workload.

    The clean/loss/churn cells share the case-study topology and one
    workload; the bursty cell generates its own larger grid and MMPP
    request stream (same master seed, so the whole tournament is one
    deterministic function of ``(request_count, master_seed,
    bursty_agents)``).
    """
    unknown = [c for c in cells if c not in CELLS]
    if unknown:
        raise ExperimentError(f"unknown experiment-6 cells {unknown!r}")
    base = replace(
        experiment4_base_config(master_seed=master_seed, request_count=request_count),
        name="experiment-6",
    )
    topo = case_study_topology()
    workload = tuple(seeded_workload(base, topo))
    built: List[Experiment6Cell] = []
    for name in cells:
        if name == "bursty":
            scenario = generate_scenario(
                ScenarioSpec(
                    name="experiment-6-bursty",
                    agent_count=bursty_agents,
                    request_count=request_count,
                    arrival="mmpp",
                    master_seed=master_seed,
                )
            )
            # FIFO locally, like every scale-tier run: the bursty cell
            # measures the dispatch rule under load spikes, not the GA.
            built.append(
                Experiment6Cell(
                    name=name,
                    config=scenario.spec.config(policy=SchedulingPolicy.FIFO),
                    topology=scenario.topology,
                    workload=scenario.workload,
                )
            )
            continue
        if name == "clean":
            config = replace(base, name=f"{base.name}-clean")
        elif name == "loss":
            config = degradation_config(base, loss=LOSS_RATE, resilient=True)
        else:
            config = experiment5_config(base, topo, churn_rate=CHURN_RATE, healing=True)
        built.append(
            Experiment6Cell(name=name, config=config, topology=topo, workload=workload)
        )
    return built


@dataclass(frozen=True)
class Experiment6Point(RequestRates):
    """One (policy × cell) entry of the tournament."""

    policy: str
    cell: str
    submitted: int
    succeeded: int
    failed: int
    unresolved: int
    deadline_met: int
    epsilon: float
    upsilon_percent: float
    beta_percent: float
    wall_seconds: float


def _policy_config(cell: Experiment6Cell, kind: str) -> ExperimentConfig:
    """*cell*'s configuration with global policy *kind* stamped in."""
    return replace(
        cell.config,
        name=f"{cell.config.name}-{kind}",
        global_policy=GlobalPolicyConfig(kind=kind),
    )


def _run_point(cell: Experiment6Cell, kind: str) -> Experiment6Point:
    run = run_degraded(
        _policy_config(cell, kind), cell.topology, workload=list(cell.workload)
    )
    return Experiment6Point(
        policy=kind,
        cell=cell.name,
        submitted=run.submitted,
        succeeded=run.succeeded,
        failed=run.failed,
        unresolved=run.unresolved,
        deadline_met=run.deadline_met,
        epsilon=run.result.metrics.total.epsilon,
        upsilon_percent=run.result.metrics.total.upsilon_percent,
        beta_percent=run.result.metrics.total.beta_percent,
        wall_seconds=run.result.wall_seconds,
    )


# ------------------------------------------------------------ verification


def _traced_run(
    config: ExperimentConfig, cell: Experiment6Cell
) -> Tuple[DegradedRun, List[TraceRecord]]:
    """*config* on *cell*'s grid and workload, traced."""
    from repro.obs.trace import MemorySink, Tracer

    tracer = Tracer(MemorySink())
    run = run_degraded(
        config, cell.topology, workload=list(cell.workload), tracer=tracer
    )
    return run, tracer.records


def verify_clean_parity(
    *, request_count: int = 120, master_seed: int = 2003
) -> List[str]:
    """Assert the clean-cell eq10 point ≡ the pre-policy seed behaviour.

    Runs the clean cell twice — once with the default configuration (the
    seed path) and once with an *explicitly* selected ``eq10`` policy
    carrying non-default timeouts (which eq10 must ignore) — and compares
    the canonical trace, the balancing metrics, the message counters, and
    the RNG digest.  Returns the list of divergences; byte-identity means
    an empty list.
    """
    from repro.obs.records import canonical_lines

    (cell,) = experiment6_cells(
        request_count=request_count, master_seed=master_seed, cells=("clean",)
    )
    baseline_cfg = replace(cell.config, global_policy=GlobalPolicyConfig())
    explicit_cfg = replace(
        cell.config,
        global_policy=GlobalPolicyConfig(
            kind="eq10", bid_timeout=7.5, reservation_timeout=11.0
        ),
    )
    base_run, base_records = _traced_run(baseline_cfg, cell)
    expl_run, expl_records = _traced_run(explicit_cfg, cell)
    base_lines = canonical_lines(base_records)
    expl_lines = canonical_lines(expl_records)
    mismatches: List[str] = []
    if base_lines != expl_lines:
        first = next(
            (
                i
                for i, (a, b) in enumerate(zip(base_lines, expl_lines))
                if a != b
            ),
            min(len(base_lines), len(expl_lines)),
        )
        mismatches.append(
            f"trace diverges at record {first} "
            f"({len(base_lines)} vs {len(expl_lines)} records)"
        )
    # Serialise before comparing: NaN cells (idle resources in short
    # runs) are equal as JSON text but never as floats.
    base_metrics = json.dumps(asdict(base_run.result.metrics), sort_keys=True)
    expl_metrics = json.dumps(asdict(expl_run.result.metrics), sort_keys=True)
    if base_metrics != expl_metrics:
        mismatches.append("balancing metrics differ")
    for field in ("submitted", "succeeded", "failed", "deadline_met"):
        a, b = getattr(base_run, field), getattr(expl_run, field)
        if a != b:
            mismatches.append(f"{field} differs: {a} vs {b}")
    for field in ("messages_sent", "messages_delivered", "rng_digest"):
        a = getattr(base_run.result, field)
        b = getattr(expl_run.result, field)
        if a != b:
            mismatches.append(f"{field} differs: {a} vs {b}")
    return mismatches


@dataclass(frozen=True)
class InvariantRun:
    """One traced policy run and what the checker made of it."""

    policy: str
    cell: str
    violations: Tuple[Violation, ...]
    record_counts: Dict[str, int]
    completion_rate: float


def run_policy_invariants(
    *, request_count: int = 120, master_seed: int = 2003
) -> List[InvariantRun]:
    """Trace the structural-invariant probe runs for ``--check``.

    An auction run on the clean cell and a reservation run on the churn
    cell (churn exercises release-on-confirmed-death), each through
    :func:`~repro.obs.check.check_trace`.  The caller asserts zero
    violations *and* that the protocols actually fired (≥ 1
    ``auction.settle``, ≥ 1 ``resv.book``).
    """
    from repro.obs.check import check_trace

    cells = {
        cell.name: cell
        for cell in experiment6_cells(
            request_count=request_count,
            master_seed=master_seed,
            cells=("clean", "churn"),
        )
    }
    probes = (("auction", "clean"), ("reservation", "churn"))
    out: List[InvariantRun] = []
    for kind, cell_name in probes:
        cell = cells[cell_name]
        run, records = _traced_run(_policy_config(cell, kind), cell)
        counts: Dict[str, int] = {}
        for record in records:
            if record.kind.startswith(("auction.", "resv.")):
                counts[record.kind] = counts.get(record.kind, 0) + 1
        out.append(
            InvariantRun(
                policy=kind,
                cell=cell_name,
                violations=tuple(check_trace(records)),
                record_counts=counts,
                completion_rate=run.completion_rate,
            )
        )
    return out


def _checks(result: TournamentResult, args) -> List[str]:
    """The eq10 clean point is the seed path, every policy completes the
    clean cell, and the probe traces hold the protocol rules with the
    protocols actually exercised."""
    failures = []
    if "clean" in result.cells:
        failures.extend(
            f"eq10 clean cell is not the seed path: {mismatch}"
            for mismatch in verify_clean_parity(
                request_count=args.requests, master_seed=args.seed
            )
        )
    for p in result.points:
        if p.cell == "clean" and p.completion_rate < 1.0:
            failures.append(
                f"clean cell incomplete under {p.policy}: "
                f"{p.succeeded}/{p.submitted}"
            )
    fired = {"auction": "auction.settle", "reservation": "resv.book"}
    for probe in run_policy_invariants(
        request_count=args.requests, master_seed=args.seed
    ):
        for violation in probe.violations:
            failures.append(
                f"{probe.policy}/{probe.cell} trace violates "
                f"{violation.rule} at t={violation.t:.3f}: {violation.message}"
            )
        kind = fired[probe.policy]
        if not probe.record_counts.get(kind):
            failures.append(
                f"{probe.policy}/{probe.cell} run never produced a "
                f"{kind} record — the protocol was not exercised"
            )
    return failures


EXPERIMENT6 = Tournament(
    name="experiment6",
    title="Experiment 6: global-policy tournament",
    help="global-policy tournament: eq10 vs auction vs reservation "
    "across clean/loss/bursty/churn cells",
    invariants="the policy invariants hold (eq10 clean cell byte-identical "
    "to the seed path; every auction settles or times out; no double-booked "
    "reservation windows; reservations released on confirmed death)",
    arguments=(
        argument("--requests", type=int, default=120),
        argument("--seed", type=int, default=2003),
        argument("--bursty-agents", type=int, default=DEFAULT_BURSTY_AGENTS,
                 metavar="N", help="grid size of the generated MMPP bursty cell"),
        argument("--policies", nargs="+", default=list(POLICY_KINDS),
                 choices=POLICY_KINDS, metavar="KIND",
                 help="which global policies to enter"),
        argument("--cells", nargs="+", default=list(CELLS), choices=CELLS,
                 metavar="CELL", help="which standing cells to run"),
    ),
    header=(
        ("request_count", "requests"),
        ("master_seed", "seed"),
        ("bursty_agents", "bursty_agents"),
    ),
    cells=lambda args: experiment6_cells(
        request_count=args.requests,
        master_seed=args.seed,
        bursty_agents=args.bursty_agents,
        cells=args.cells,
    ),
    contenders=lambda args: args.policies,
    run_point=_run_point,
    columns=(
        ("cell", lambda p: p.cell),
        ("policy", lambda p: p.policy),
        ("completed", lambda p: fraction(p.succeeded, p.submitted)),
        ("met deadline", lambda p: f"{p.deadline_met_rate:.0%}"),
        ("unresolved", lambda p: p.unresolved),
        ("ε (s)", lambda p: rounded(p.epsilon)),
        ("υ (%)", lambda p: rounded(p.upsilon_percent)),
        ("β (%)", lambda p: rounded(p.beta_percent)),
        ("wall (s)", lambda p: f"{p.wall_seconds:.2f}"),
    ),
    checks=_checks,
)
