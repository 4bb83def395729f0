"""Seed-robustness sweep: do the paper's conclusions survive reseeding?

The paper reports one seeded workload.  A reproduction can do better:
re-run the three experiments under several master seeds and check how
often each qualitative trend holds and how variable the grid totals are.
This is the difference between "we matched the published run" and "the
paper's conclusions are properties of the system".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import ExperimentError
from repro.experiments.casestudy import GridTopology
from repro.experiments.runner import ExperimentResult
from repro.experiments.tables import check_paper_trends, table3_jobs

__all__ = ["SeedSweepSummary", "run_seed_sweep"]


@dataclass(frozen=True)
class SeedSweepSummary:
    """Aggregated outcome of a multi-seed Table 3 sweep.

    ``trend_support`` maps each qualitative check to the fraction of seeds
    where it held; ``totals`` maps ``(experiment index, metric)`` to the
    (mean, std) of the grid total across seeds.
    """

    seeds: Tuple[int, ...]
    request_count: int
    trend_support: Dict[str, float]
    totals: Dict[Tuple[int, str], Tuple[float, float]]
    per_seed: Dict[int, List[ExperimentResult]]

    def total(self, experiment_index: int, metric: str) -> Tuple[float, float]:
        """``(mean, std)`` of a grid total; metric in ε/υ/β naming."""
        try:
            return self.totals[(experiment_index, metric)]
        except KeyError:
            raise ExperimentError(
                f"no total for experiment {experiment_index}, metric {metric!r}"
            ) from None


def run_seed_sweep(
    seeds: Sequence[int],
    *,
    request_count: int = 600,
    topology: GridTopology | None = None,
    jobs: int = 1,
) -> SeedSweepSummary:
    """Run experiments 1–3 under each seed and aggregate.

    Each seed generates its own workload (agents, applications, deadlines
    all redrawn); within one seed the three experiments still share the
    identical workload, as §4.1 requires.  The ``len(seeds) × 3``
    independent experiments form one job list for the process-parallel
    fabric (``jobs > 1`` fans it out); per-seed workloads are generated
    once in the parent and pinned into every job, so the summary is the
    same for every ``jobs``.
    """
    if not seeds:
        raise ExperimentError("seeds must not be empty")
    if len(set(seeds)) != len(seeds):
        raise ExperimentError("seeds must be unique")
    from repro.experiments.parallel import run_many

    flat = [
        job
        for seed in seeds
        for job in table3_jobs(
            master_seed=int(seed), request_count=request_count, topology=topology
        )
    ]
    ordered = run_many(flat, jobs=jobs)
    per_seed: Dict[int, List[ExperimentResult]] = {
        int(seed): ordered[3 * i : 3 * i + 3] for i, seed in enumerate(seeds)
    }
    support: Dict[str, List[bool]] = {}
    samples: Dict[Tuple[int, str], List[float]] = {}
    for seed in seeds:
        results = per_seed[int(seed)]
        for check in check_paper_trends(results):
            support.setdefault(check.name, []).append(check.holds)
        for i, result in enumerate(results):
            total = result.metrics.total
            samples.setdefault((i, "epsilon"), []).append(total.epsilon)
            samples.setdefault((i, "upsilon"), []).append(total.upsilon_percent)
            samples.setdefault((i, "beta"), []).append(total.beta_percent)
    trend_support = {
        name: float(np.mean(flags)) for name, flags in support.items()
    }
    totals = {
        key: (float(np.mean(vals)), float(np.std(vals)))
        for key, vals in samples.items()
    }
    return SeedSweepSummary(
        seeds=tuple(int(s) for s in seeds),
        request_count=request_count,
        trend_support=trend_support,
        totals=totals,
        per_seed=per_seed,
    )
