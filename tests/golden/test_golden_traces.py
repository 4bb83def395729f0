"""Golden-trace regression tier: canonical traces match exactly, forever.

Four checked-in traces lock in the system's decision stream end to end:

* ``exp1_seed2003.jsonl`` — Experiment 1 (FIFO, no agents) at the case
  study seed: the baseline scheduling path.
* ``exp4_loss02_churn025.jsonl`` — one faulty Experiment 4 cell (20%
  loss, 25% churn, resilient protocol): drops, crashes, retries, and
  synthetic results, all attributed.
* ``exp6_auction_seed2003.jsonl`` — a clean run under the contract-net
  ``AuctionPolicy``: every CFP round, sealed bid, and settlement.
* ``exp6_reservation_seed2003.jsonl`` — a clean run under the
  ``ReservationPolicy``: bookings, confirmations, and releases.
* ``workflow_forkjoin_seed2003.jsonl`` — a staged fork-join workflow on
  the case-study grid: every ``dag.release``/``dag.transfer``/
  ``dag.ready`` alongside the dispatch stream they gate.

The comparison is exact, line for line.  A diff here means a behavioural
change — a routing decision moved, a dispatch slot shifted, a retry
appeared — and must be either fixed or consciously re-baselined with::

    pytest tests/golden --update-golden

then reviewing the diff like any other code change.  The canonical
format (``CANONICAL_FIELDS``) keeps traces small and meaningful: decision
records only, sim-time stamps, sorted JSON keys.
"""

from __future__ import annotations

import pathlib
from dataclasses import replace

import pytest

from repro.agents.policy import GlobalPolicyConfig
from repro.experiments.config import table2_experiments
from repro.experiments.experiment4 import (
    degradation_config,
    experiment4_base_config,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_grid, run_degraded, run_experiment
from repro.obs.records import canonical_lines
from repro.obs.trace import MemorySink, Tracer
from repro.scheduling.scheduler import SchedulingPolicy
from repro.tasks.graph import fork_join
from repro.tasks.workflow import WorkflowCoordinator

GOLDEN_DIR = pathlib.Path(__file__).parent
REQUESTS = 12
SEED = 2003


def _trace_exp1() -> list:
    tracer = Tracer(MemorySink())
    config = table2_experiments(master_seed=SEED, request_count=REQUESTS)[0]
    run_experiment(config, tracer=tracer)
    return canonical_lines(tracer.records)


def _trace_exp4_cell() -> list:
    tracer = Tracer(MemorySink())
    config = degradation_config(
        experiment4_base_config(master_seed=SEED, request_count=REQUESTS),
        loss=0.2,
        churn_rate=0.25,
        resilient=True,
    )
    run_degraded(config, tracer=tracer)
    return canonical_lines(tracer.records)


def _trace_exp6_policy(kind: str) -> list:
    tracer = Tracer(MemorySink())
    config = replace(
        experiment4_base_config(master_seed=SEED, request_count=REQUESTS),
        global_policy=GlobalPolicyConfig(kind=kind),
    )
    run_degraded(config, tracer=tracer)
    return canonical_lines(tracer.records)


def _trace_workflow_fork_join() -> list:
    tracer = Tracer(MemorySink())
    config = ExperimentConfig(
        name="golden-workflow",
        policy=SchedulingPolicy.GA,
        agents_enabled=True,
        request_count=1,
        master_seed=SEED,
    )
    system = build_grid(config, tracer=tracer)
    coordinator = WorkflowCoordinator(
        system.portal,
        {name: spec.model for name, spec in system.specs.items()},
        tracer=tracer,
    )
    system.start()
    apps = ["sweep3d", "fft", "improc", "closure", "jacobi", "memsort"]
    coordinator.start_workflow(
        fork_join(apps, width=4, output_size=2.0), system.agents["S1"], 600.0
    )
    while not coordinator.all_resolved or system.portal.pending_count > 0:
        if not system.sim.step():
            break
    system.stop()
    return canonical_lines(tracer.records)


CASES = {
    "exp1_seed2003.jsonl": _trace_exp1,
    "exp4_loss02_churn025.jsonl": _trace_exp4_cell,
    "exp6_auction_seed2003.jsonl": lambda: _trace_exp6_policy("auction"),
    "exp6_reservation_seed2003.jsonl": lambda: _trace_exp6_policy("reservation"),
    "workflow_forkjoin_seed2003.jsonl": _trace_workflow_fork_join,
}


@pytest.mark.parametrize("filename", sorted(CASES))
def test_trace_matches_golden(filename, update_golden):
    path = GOLDEN_DIR / filename
    lines = CASES[filename]()
    assert lines, "a traced run must produce canonical records"

    if update_golden:
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return

    assert path.exists(), (
        f"golden trace {filename} missing — generate it with "
        "`pytest tests/golden --update-golden`"
    )
    expected = path.read_text(encoding="utf-8").splitlines()
    # Compare prefix first so a diff points at the first divergent decision
    # instead of drowning it in a length mismatch.
    for i, (got, want) in enumerate(zip(lines, expected)):
        assert got == want, (
            f"{filename}: first divergence at line {i + 1}:\n"
            f"  expected: {want}\n"
            f"  got:      {got}"
        )
    assert len(lines) == len(expected), (
        f"{filename}: trace has {len(lines)} canonical records, "
        f"golden has {len(expected)}"
    )
