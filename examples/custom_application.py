#!/usr/bin/env python3
"""Bring your own application — structural models, fitting, and scheduling.

Shows the full PACE workflow for an application that is *not* one of the
paper's seven:

1. describe the program as computation/communication **steps** (the
   CHIP³S-style structural model);
2. evaluate it across platforms and processor counts;
3. recover a closed-form **parametric fit** from the predicted curve;
4. schedule a batch of it, mixed with paper workloads, on a local grid.

Run:  python examples/custom_application.py
"""

from __future__ import annotations

import numpy as np

from repro.pace.evaluation import EvaluationEngine
from repro.pace.fitting import fit_best
from repro.pace.hardware import DEFAULT_CATALOGUE, SGI_ORIGIN_2000
from repro.pace.resource import ResourceModel
from repro.pace.structural import (
    Broadcast,
    Exchange,
    ParallelCompute,
    Reduction,
    SerialCompute,
    StructuralModel,
)
from repro.pace.workloads import paper_application_specs
from repro.scheduling.scheduler import LocalScheduler, SchedulingPolicy
from repro.sim.engine import Engine
from repro.tasks.task import Environment, TaskRequest
from repro.utils.tables import render_table


def build_model() -> StructuralModel:
    """An iterative CFD-style solver: halo exchanges + global residual."""
    return StructuralModel(
        "cfd-solver",
        steps=[
            SerialCompute(mflop=120.0),          # boundary setup
            ParallelCompute(mflop=9000.0),       # stencil sweep
            Exchange(mbytes=2.0, neighbours=4),  # 2-D halo exchange
            Reduction(mbytes=0.001),             # residual norm
            Broadcast(mbytes=0.001),             # convergence flag
        ],
        iterations=40,
    )


def main() -> None:
    model = build_model()
    engine = EvaluationEngine()

    # ------------------------------------------------ cross-platform curves
    counts = [1, 2, 4, 8, 16]
    rows = []
    for platform in DEFAULT_CATALOGUE:
        rows.append(
            [platform.name]
            + [f"{engine.evaluate_count(model, k, platform):.1f}" for k in counts]
        )
    print(render_table(
        ["platform"] + [str(k) for k in counts],
        sorted(rows),
        title=f"Structural model '{model.name}': predicted seconds",
    ))
    print()

    # ------------------------------------------------------- parametric fit
    curve = [engine.evaluate_count(model, k, SGI_ORIGIN_2000) for k in range(1, 17)]
    fit = fit_best(model.name, curve)
    print(
        f"Best parametric family: {type(fit.model).__name__} "
        f"(rmse {fit.rmse:.3f}s over 16 points)"
    )
    k_best, t_best = engine.best_count(model, SGI_ORIGIN_2000, 16)
    print(f"Optimal allocation on SGIOrigin2000: {k_best} processors ({t_best:.1f}s)")
    print()

    # ------------------------------------------------------------ scheduling
    sim = Engine()
    resource = ResourceModel.homogeneous("cluster", SGI_ORIGIN_2000, 16)
    scheduler = LocalScheduler(
        sim,
        resource,
        engine,
        policy=SchedulingPolicy.GA,
        rng=np.random.default_rng(2),
        generations_per_event=10,
    )
    specs = paper_application_specs()
    mixed = [model, specs["fft"].model, model, specs["improc"].model, model]
    deadline_rng = np.random.default_rng(5)
    tasks = []
    for app in mixed:
        tasks.append(
            scheduler.submit(
                TaskRequest(
                    application=app,
                    environment=Environment.TEST,
                    deadline=sim.now + float(deadline_rng.uniform(40, 120)),
                    submit_time=sim.now,
                )
            )
        )
        sim.run_until(sim.now + 1.0)
    sim.run()

    rows = [
        [t.task_id, t.application.name, len(t.allocated_nodes or ()),
         f"{t.completion_time:.1f}", f"{t.advance_time:+.1f}"]
        for t in tasks
    ]
    print(render_table(
        ["task", "application", "nodes", "completed", "slack"],
        rows,
        title="Mixed batch scheduled by the GA",
    ))


if __name__ == "__main__":
    main()
