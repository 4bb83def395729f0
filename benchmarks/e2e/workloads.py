"""The benchmark's four workloads, driven through the public ``repro`` API.

Every workload is a pure function of its seed.  In virtual time each is an
open loop: requests (or workflows) arrive on a seeded schedule whatever
state the grid is in.  :func:`prepare` sets a workload up, :func:`drive`
runs it to drain, and the remaining functions check its outputs and
reduce them to the benchmark's metrics.

The drive loop mirrors :func:`repro.experiments.run_experiment` (same
arrival events, same submit call, same drain condition) but keeps set-up
and the event loop apart, so set-up time and run time are measured
separately.  ``test_workloads.py`` holds the two paths equal.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ExperimentError
from repro.experiments import (
    build_grid,
    case_study_topology,
    check_paper_trends,
    generate_workload,
    table2_experiments,
    validate_table1,
)
from repro.experiments.experiment7 import experiment7_cells
from repro.experiments.scenarios import ScenarioSpec, generate_scenario
from repro.metrics.balancing import compute_metrics
from repro.metrics.records import records_from_tasks
from repro.pace.workloads import paper_application_specs
from repro.sim.events import Priority
from repro.tasks.task import Environment
from repro.tasks.workflow import WorkflowCoordinator

from summary import percentile

#: Liveness backstop on events per drive loop (the largest workload fires
#: ~10^5).
MAX_EVENTS = 5_000_000

#: Events between two calls of :func:`drive`'s *tick*.
TICK_EVENTS = 8

#: Workload sizes.  Chosen so one unit takes a few seconds on a 2-core
#: VM: a run then holds several units, and the medians it reports are
#: steady (see README.md for the measurements behind each number).
CASESTUDY_REQUESTS = 60
BURST_REQUESTS = 80
BURST_INTERVAL = 0.5
GRID_AGENTS = 1000
GRID_REQUESTS = 150
DAG_WORKFLOWS = 4
DAG_CELLS = ("montage-poisson", "pipeline")


class WorkloadError(RuntimeError):
    """A workload could not run to drain."""


@dataclass
class Phases:
    """Accumulated wall time per set-up phase."""

    seconds: Dict[str, float] = field(default_factory=dict)

    @contextmanager
    def time(self, phase: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[phase] = self.seconds.get(phase, 0.0) + (
                time.perf_counter() - t0
            )

    @property
    def total(self) -> float:
        return sum(self.seconds.values())


@dataclass
class Prepared:
    """One grid, set up and armed, waiting to be driven."""

    label: str
    system: object
    #: True once every request (independent or workflow node) has resolved.
    done: Callable[[], bool]
    coordinator: Optional[WorkflowCoordinator] = None
    #: (workflow item, workflow id) for every started workflow.
    started: List[Tuple[object, int]] = field(default_factory=list)
    workflows_expected: int = 0


# --------------------------------------------------------------- set-up


def _submitter(system, item) -> Callable[[], None]:
    def submit() -> None:
        system.portal.submit(
            system.agents[item.agent_name],
            system.specs[item.application].model,
            Environment.TEST,
            item.deadline,
        )

    return submit


def _prepare_requests(label, config, topology, items, phases: Phases) -> Prepared:
    with phases.time("build_grid"):
        system = build_grid(config, topology)
    with phases.time("start"):
        system.start()
        for item in items:
            system.sim.schedule(
                item.submit_time,
                _submitter(system, item),
                priority=Priority.ARRIVAL,
                label=f"arrival-{item.application}",
                lane=item.agent_name,
            )
    portal = system.portal
    count = len(items)
    return Prepared(
        label=label,
        system=system,
        done=lambda: portal.submitted_count >= count and portal.pending_count == 0,
    )


def _node_durations(system, graph, agent_name: str) -> Dict[str, float]:
    """PACE's best predicted time per node on the entry agent's hardware."""
    platform = system.topology.platform(agent_name)
    nproc = system.topology.nproc[agent_name]
    return {
        node: system.evaluator.best_count(
            system.specs[graph.application(node)].model, platform, nproc
        )[1]
        for node in graph.node_names
    }


def _prepare_workflows(cell, phases: Phases) -> Prepared:
    """One Experiment 7 cell in its precedence-aware mode."""
    config = replace(cell.config, name=f"{cell.config.name}-aware")
    if cell.release_mode == "staged":
        config = replace(
            config, discovery=replace(config.discovery, data_gravity=True)
        )
    with phases.time("build_grid"):
        system = build_grid(config, cell.topology)
    prepared = Prepared(label=cell.name, system=system, done=lambda: True)
    with phases.time("start"):
        coordinator = WorkflowCoordinator(
            system.portal, {name: spec.model for name, spec in system.specs.items()}
        )
        system.start()

        def starter(item):
            def start() -> None:
                graph = item.graph()
                workflow_id = coordinator.start_workflow(
                    graph,
                    system.agents[item.agent_name],
                    item.deadline,
                    mode=cell.release_mode,
                    durations=_node_durations(system, graph, item.agent_name),
                )
                prepared.started.append((item, workflow_id))

            return start

        for item in cell.workflows:
            system.sim.schedule(
                item.submit_time,
                starter(item),
                priority=Priority.ARRIVAL,
                label=f"workflow-{item.shape}",
                lane=item.agent_name,
            )
    expected = len(cell.workflows)
    prepared.coordinator = coordinator
    prepared.workflows_expected = expected
    prepared.done = lambda: (
        len(prepared.started) >= expected
        and system.portal.pending_count == 0
        and coordinator.all_resolved
    )
    return prepared


def prepare(workload: str, seed: int, phases: Phases, *, scale: float = 1.0):
    """Set up *workload* for *seed*; returns ``(grids, headline index)``.

    *scale* shrinks every size (tests use small values); the benchmark
    always runs at 1.0.  The headline grid supplies the simulated
    metrics.
    """

    def n(size: int) -> int:
        return max(1, int(round(size * scale)))

    specs = paper_application_specs()
    if workload == "casestudy":
        topology = case_study_topology()
        configs = table2_experiments(
            master_seed=seed, request_count=n(CASESTUDY_REQUESTS)
        )
        with phases.time("generate"):
            items = generate_workload(
                topology.agent_names,
                specs,
                count=n(CASESTUDY_REQUESTS),
                master_seed=seed,
            )
        grids = [
            _prepare_requests(cfg.name, cfg, topology, items, phases)
            for cfg in configs
        ]
        return grids, 2
    if workload == "casestudy_burst":
        topology = case_study_topology()
        config = replace(
            table2_experiments(master_seed=seed, request_count=n(BURST_REQUESTS))[2],
            name="experiment-3-burst",
            request_interval=BURST_INTERVAL,
        )
        with phases.time("generate"):
            items = generate_workload(
                topology.agent_names,
                specs,
                count=config.request_count,
                interval=BURST_INTERVAL,
                master_seed=seed,
            )
        return [_prepare_requests(config.name, config, topology, items, phases)], 0
    if workload == "grid1000":
        spec = ScenarioSpec(
            name="grid1000",
            agent_count=GRID_AGENTS,
            branching=3,
            request_count=n(GRID_REQUESTS),
            rate=1.0,
            arrival="poisson",
            master_seed=seed,
        )
        with phases.time("generate"):
            scenario = generate_scenario(spec)
        grid = _prepare_requests(
            spec.name, spec.config(), scenario.topology, scenario.workload, phases
        )
        return [grid], 0
    if workload == "workflow_dag":
        with phases.time("generate"):
            cells = experiment7_cells(
                workflow_count=n(DAG_WORKFLOWS), master_seed=seed, cells=DAG_CELLS
            )
        return [_prepare_workflows(cell, phases) for cell in cells], None
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- drive


def drive(grid: Prepared, tick: Optional[Callable[[], None]] = None) -> None:
    """Fire events until *grid* drains every request it was given.

    *tick*, if given, is called every :data:`TICK_EVENTS` events.
    """
    sim = grid.system.sim
    steps = 0
    while not grid.done():
        if not sim.step():
            raise WorkloadError(
                f"{grid.label}: event queue drained with "
                f"{grid.system.portal.pending_count} requests pending"
            )
        steps += 1
        if steps > MAX_EVENTS:
            raise WorkloadError(f"{grid.label}: exceeded {MAX_EVENTS} events")
        if tick is not None and steps % TICK_EVENTS == 0:
            tick()
    grid.system.stop()


# -------------------------------------------------------------- outputs


def _records_and_metrics(system):
    records = []
    busy = {}
    nodes = {}
    for name, scheduler in system.schedulers.items():
        records.extend(records_from_tasks(scheduler.executor.completed_tasks))
        busy[name] = scheduler.executor.busy_intervals
        nodes[name] = scheduler.resource.size
    return records, compute_metrics(records, busy, nodes)


def _graph_deadlines_met(grid: Prepared) -> Tuple[int, int]:
    results = grid.system.portal.results
    met = 0
    for item, workflow_id in grid.started:
        completion = grid.coordinator.run(workflow_id).completion_time(results)
        if completion is not None and completion <= item.deadline:
            met += 1
    return met, grid.workflows_expected


def _finite(value: float) -> Optional[float]:
    return value if math.isfinite(value) else None


def grid_outputs(grid: Prepared) -> dict:
    """Everything one drained grid produced that the benchmark checks."""
    system = grid.system
    records, metrics = _records_and_metrics(system)
    portal = system.portal
    results = portal.results
    successes = [r for r in results.values() if r.success]
    responses = [r.completion_time - r.submit_time for r in successes]
    if grid.coordinator is not None:
        met, units = _graph_deadlines_met(grid)
    else:
        met = sum(1 for r in successes if r.met_deadline)
        units = portal.submitted_count
    canonical = json.dumps(
        {
            "records": [
                [r.task_id, r.application, r.resource_name, list(r.node_ids),
                 r.start, r.completion, r.deadline, r.submit_time]
                for r in sorted(records, key=lambda r: (r.resource_name, r.task_id))
            ],
            "total": [
                _finite(metrics.total.epsilon), metrics.total.upsilon,
                metrics.total.beta, metrics.total.n_tasks,
            ],
            "rng": system.rngs.state_digest(),
        },
        sort_keys=True,
    )
    return {
        "label": grid.label,
        "requests": portal.submitted_count,
        "results": len(results),
        "successes": len(successes),
        "duplicate_results": portal.stats.duplicate_results,
        "units": units,
        "units_met": met,
        "responses": responses,
        "waits": [r.start - r.submit_time for r in records],
        "metrics": metrics,
        "digest": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "workflows_resolved": (
            grid.coordinator.all_resolved if grid.coordinator is not None else True
        ),
    }


def simulated_metrics(headline: dict) -> Dict[str, float]:
    """The deterministic end-to-end metrics of one drained grid."""
    total = headline["metrics"].total
    responses = headline["responses"]
    return {
        "deadline_met_frac": headline["units_met"] / headline["units"],
        "epsilon_s": total.epsilon,
        "upsilon_pct": total.upsilon_percent,
        "beta_pct": total.beta_percent,
        "response_s_p50": percentile(responses, 50),
        "response_s_p95": percentile(responses, 95),
    }


def correctness_failures(outputs: List[dict]) -> List[str]:
    """Checks every unit must pass; returns a description of each failure."""
    failures = []
    for out in outputs:
        label = out["label"]
        if out["results"] != out["requests"]:
            failures.append(
                f"{label}: {out['requests']} requests but {out['results']} results"
            )
        if out["duplicate_results"]:
            failures.append(
                f"{label}: {out['duplicate_results']} duplicate portal results"
            )
        if not out["workflows_resolved"]:
            failures.append(f"{label}: a workflow did not resolve")
    try:
        validate_table1()
    except ExperimentError as exc:
        failures.append(f"validate_table1: {exc}")
    return failures


def paper_trends(outputs: List[dict]) -> List[Tuple[str, bool]]:
    """``check_paper_trends`` over experiments 1-3 (information only)."""
    results = [SimpleNamespace(metrics=out["metrics"]) for out in outputs]
    return [(check.name, check.holds) for check in check_paper_trends(results)]


def headline_outputs(workload: str, outputs: List[dict], headline: Optional[int]):
    """The grid outputs the simulated metrics come from.

    ``workflow_dag`` pools its two cells: graph deadlines and response
    times over both, ε/υ/β from the staged cell (the eager cell runs on
    single clusters, whose grid totals are not comparable).
    """
    if headline is not None:
        return outputs[headline]
    staged = outputs[0]
    return {
        **staged,
        "units": sum(o["units"] for o in outputs),
        "units_met": sum(o["units_met"] for o in outputs),
        "responses": [r for o in outputs for r in o["responses"]],
        "waits": [w for o in outputs for w in o["waits"]],
    }


def counters(grids: List[Prepared], outputs: List[dict], headline: dict) -> dict:
    """Deterministic work counts read from the drained grids' public state."""
    systems = [grid.system for grid in grids]
    gas = [
        scheduler.ga
        for system in systems
        for scheduler in system.schedulers.values()
        if scheduler.ga is not None
    ]
    caches = [system.evaluator.cache.stats for system in systems]
    released = edges = 0
    moved = 0.0
    for grid in grids:
        if grid.coordinator is None:
            continue
        for run in grid.coordinator.runs.values():
            released += len(run.released)
            for node in run.graph.node_names:
                for parent, size in run.graph.parents(node):
                    source, sink = run.sources.get(parent), run.sources.get(node)
                    if source and sink and source != sink:
                        edges += 1
                        moved += size
    waits = headline["waits"]
    return {
        "events": sum(system.sim.fired_count for system in systems),
        "messages": sum(system.transport.sent for system in systems),
        "dropped": sum(
            system.transport.dropped_count + system.transport.fault_dropped_count
            for system in systems
        ),
        "requests": sum(out["requests"] for out in outputs),
        "rejected": sum(
            agent.stats.rejected
            for system in systems
            for agent in system.agents.values()
        ),
        "generations": sum(ga.generations for ga in gas),
        "rows_costed": sum(ga.stats.rows_costed for ga in gas),
        "rows_evaluated": sum(ga.stats.rows_evaluated for ga in gas),
        "pace_hits": sum(stats.hits for stats in caches),
        "pace_lookups": sum(stats.requests for stats in caches),
        "wait_s_p50": percentile(waits, 50) if waits else 0.0,
        "wait_s_p95": percentile(waits, 95) if waits else 0.0,
        "nodes_released": released,
        "cross_cluster_edges": edges,
        "bytes_moved": moved,
    }
