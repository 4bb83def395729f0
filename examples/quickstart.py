#!/usr/bin/env python3
"""Quickstart — predict, schedule, and run tasks on one local grid resource.

This walks the three layers of the library bottom-up:

1. **PACE prediction** — combine an application model with a hardware
   platform to predict execution times (Table 1's data).
2. **Local scheduling** — submit tasks with deadlines to a GA-driven
   :class:`LocalScheduler` on a 16-node cluster and watch them complete in
   virtual time.
3. **Metrics** — compute the paper's ε / υ / β for the run.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.metrics.balancing import compute_metrics
from repro.metrics.records import records_from_tasks
from repro.pace.evaluation import EvaluationEngine
from repro.pace.hardware import SGI_ORIGIN_2000, SUN_ULTRA_5
from repro.pace.resource import ResourceModel
from repro.pace.workloads import paper_application_specs
from repro.scheduling.scheduler import LocalScheduler, SchedulingPolicy
from repro.sim.engine import Engine
from repro.tasks.task import Environment, TaskRequest
from repro.utils.tables import render_table


def main() -> None:
    specs = paper_application_specs()

    # ------------------------------------------------------- 1. prediction
    engine = EvaluationEngine()
    print("PACE predictions for sweep3d (seconds):")
    rows = []
    for platform in (SGI_ORIGIN_2000, SUN_ULTRA_5):
        times = [
            engine.evaluate_count(specs["sweep3d"].model, k, platform)
            for k in (1, 2, 4, 8, 16)
        ]
        rows.append([platform.name] + [f"{t:.0f}" for t in times])
    print(render_table(["platform", "1", "2", "4", "8", "16"], rows))
    print()

    # ------------------------------------------------------- 2. scheduling
    sim = Engine()
    resource = ResourceModel.homogeneous("cluster", SGI_ORIGIN_2000, 16)
    scheduler = LocalScheduler(
        sim,
        resource,
        engine,
        policy=SchedulingPolicy.GA,
        rng=np.random.default_rng(42),
        generations_per_event=10,
    )

    workload_rng = np.random.default_rng(7)
    app_names = list(specs)
    print("Submitting 20 tasks (one per virtual second):")
    tasks = []
    for i in range(20):
        spec = specs[app_names[i % len(app_names)]]
        deadline = sim.now + float(workload_rng.uniform(*spec.deadline_bounds))
        tasks.append(
            scheduler.submit(
                TaskRequest(
                    application=spec.model,
                    environment=Environment.TEST,
                    deadline=deadline,
                    submit_time=sim.now,
                )
            )
        )
        sim.run_until(sim.now + 1.0)
    sim.run()  # drain: every submitted task completes

    rows = []
    for task in tasks[:8]:
        rows.append(
            [
                task.task_id,
                task.application.name,
                len(task.allocated_nodes or ()),
                f"{task.start_time:.1f}",
                f"{task.completion_time:.1f}",
                f"{task.advance_time:+.1f}",
            ]
        )
    print(
        render_table(
            ["task", "application", "nodes", "start", "done", "slack"],
            rows,
            title="First eight completions (virtual seconds)",
        )
    )
    print("  ... plus", len(tasks) - 8, "more")
    print()

    # ---------------------------------------------------------- 3. metrics
    records = records_from_tasks(scheduler.executor.completed_tasks)
    metrics = compute_metrics(
        records,
        {"cluster": scheduler.executor.busy_intervals},
        {"cluster": resource.size},
    )
    total = metrics.total
    print(
        f"Run metrics over {metrics.horizon:.0f} virtual seconds: "
        f"ε = {total.epsilon:+.1f} s, υ = {total.upsilon_percent:.0f} %, "
        f"β = {total.beta_percent:.0f} %"
    )
    met = sum(1 for r in records if r.met_deadline)
    print(f"Deadlines met: {met}/{len(records)}")


if __name__ == "__main__":
    main()
