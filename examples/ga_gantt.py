#!/usr/bin/env python3
"""Figure 2 in action — the two-part coding scheme and GA convergence.

Reconstructs the solution string of Fig. 2 (ordering part + per-task
mapping bitstrings), decodes it to a Gantt chart, then shows the GA
improving a randomly initialised population into a tightly packed,
deadline-respecting schedule for a batch of the paper's applications.

Run:  python examples/ga_gantt.py
"""

from __future__ import annotations

import numpy as np

from repro.pace.evaluation import EvaluationEngine
from repro.pace.hardware import SGI_ORIGIN_2000
from repro.pace.workloads import paper_applications
from repro.scheduling.coding import SolutionString
from repro.scheduling.cost import CostWeights
from repro.scheduling.ga import GAConfig, GAScheduler
from repro.scheduling.schedule import build_schedule, render_gantt


def figure2_demo() -> None:
    print("=" * 70)
    print("Figure 2: a two-part solution string and its schedule")
    print("=" * 70)
    bits = {3: "11010", 5: "01010", 2: "11110", 1: "01000", 6: "10111", 4: "01001"}
    solution = SolutionString(
        [3, 5, 2, 1, 6, 4],
        {tid: np.array([b == "1" for b in s]) for tid, s in bits.items()},
    )
    print("solution string:", solution.to_figure2_string())
    durations = {tid: [20.0, 12.0, 9.0, 7.0, 6.0] for tid in range(1, 7)}
    schedule = build_schedule(
        solution, [0.0] * 5, lambda tid, k: durations[tid][k - 1]
    )
    print(render_gantt(schedule, n_nodes=5))
    print()


def convergence_demo() -> None:
    print("=" * 70)
    print("GA convergence: 12 paper tasks on a 16-node SGIOrigin2000")
    print("=" * 70)
    engine = EvaluationEngine()
    models = list(paper_applications().values())
    rng = np.random.default_rng(11)

    def duration(task_id: int, count: int) -> float:
        return engine.evaluate_count(models[task_id % len(models)], count, SGI_ORIGIN_2000)

    ga = GAScheduler(
        16,
        duration,
        rng,
        GAConfig(
            population_size=50,
            weights=CostWeights(makespan=1.0, idle=1.0, deadline=1.0),
            memetic=False,  # watch the raw evolution converge
        ),
    )
    deadline_rng = np.random.default_rng(3)
    for tid in range(12):
        ga.add_task(tid, deadline=float(deadline_rng.uniform(20, 120)))

    free = [0.0] * 16
    print(f"{'generation':>10}  {'best cost':>10}")
    for generation in (0, 1, 2, 5, 10, 20, 40, 80):
        target = generation - ga.generations
        cost = ga.evolve(max(target, 0), free, 0.0)
        print(f"{ga.generations:>10}  {cost:>10.2f}")

    best = ga.best_solution(free, 0.0)
    schedule = build_schedule(best, free, duration)
    print()
    print("best schedule found:")
    print(render_gantt(schedule, n_nodes=16))
    misses = sum(
        1 for e in schedule.entries if e.completion > ga.deadline(e.task_id)
    )
    print(
        f"makespan {schedule.relative_makespan:.1f}s, "
        f"idle {schedule.total_idle():.1f} node-seconds, "
        f"{misses}/12 deadline misses"
    )

    # Convergence curve from the kernel's per-generation history.
    from repro.metrics.ascii_plot import ascii_line_chart

    costs = [cost for _, cost in ga.history]
    print()
    print(ascii_line_chart(
        {"Total": costs},
        width=60,
        height=10,
        x_labels=["gen 1", f"gen {len(costs)}"],
        title="best cost per generation",
    ))


if __name__ == "__main__":
    figure2_demo()
    convergence_demo()
