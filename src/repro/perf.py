"""The performance-regression harness behind ``BENCH_PERF.json``.

The suite times the hot kernels this codebase optimises:

* ``ga_evolve`` — generations/second of
  :meth:`~repro.scheduling.ga.GAScheduler.evolve`, the whole-population
  generation loop of :mod:`repro.scheduling.vectorized`, at twelve
  queued tasks.
* ``ga_evolve_event`` — generations/second of 10-generation ``evolve``
  calls on a one-task queue, the shape of most of the case study's
  scheduling events (per-call set-up included).
* ``ga_warmstart_convergence`` — generation-budget saving of the
  list-scheduling warm start: how many fewer generations the seeded
  population needs to match a cold run's final best cost.
* ``evaluate_scalar`` / ``evaluate_counts`` — warm-cache evaluation
  calls/second of the per-count scalar loop versus the bulk
  :meth:`~repro.pace.evaluation.EvaluationEngine.evaluate_counts` path.
* ``casestudy_wall`` — wall seconds for experiments 1–3 over the scaled
  case-study workload (``REPRO_BENCH_REQUESTS``, default 120).
* ``sweep_speedup`` — parallel-over-sequential speedup of a four-seed
  :func:`~repro.experiments.sweep.run_seed_sweep` on the experiment
  fabric.
* ``engine_events_per_s`` / ``engine_events_per_s_single_heap`` —
  events/second of the engine versus the preserved single-heap seed
  engine on an identical 1000-agent arrival-cascade workload (the event
  pattern a 1000-agent grid produces); the derived
  ``engine_partition_speedup`` is their quotient.
* ``engine_event_alloc`` — Event+Message allocations/second on the hot
  allocation path.
* ``scale_grid_1000`` — completed requests/second of a full generated
  1000-agent scenario (FIFO policy, Poisson arrivals) end to end through
  ``build_grid``/``run_experiment`` (``REPRO_BENCH_SCALE_REQUESTS``,
  default 200).
* ``startup_import_s`` — seconds a fresh interpreter spends importing the
  end-to-end benchmark's run path, compiling every module from source.
* ``startup_grid_1000_s`` — seconds to set up the ``scale_grid_1000``
  scenario in a warm process: ``generate_scenario`` + ``build_grid`` +
  ``start``.

The ``ga_``, ``engine_`` and ``scale_`` throughputs and both
``startup_`` rows are quoted at a nominal machine speed: each time is
divided by the time of a fixed slice of Python work (:class:`Gauge`)
measured in the same process, so a slow spell of a shared host moves the
slices with the program and the row stays put.

Results are written as JSON with machine info and the git SHA so numbers
are attributable; :func:`check_regression` compares two such documents
direction-aware (each benchmark declares whether higher is better) and
reports every metric that got more than ``threshold`` worse.
Parallelism-bound comparisons (``sweep_speedup``/``sweep_parallel_wall``)
are skipped — and reported as skipped — when the two documents were
measured on machines with different ``cpu_count``: a pool's speedup is a
property of the core count, not the code.

Entry point: ``PYTHONPATH=src python -m repro perf [--only SUBSTRING]
[--update]``; see docs/performance.md.
"""

from __future__ import annotations

import gc
import heapq
import json
import marshal
import os
import platform as platform_module
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "BenchResult",
    "Gauge",
    "Regression",
    "PARALLELISM_BENCHMARKS",
    "run_suite",
    "select_benchmarks",
    "merge_suite_doc",
    "check_regression",
    "render_report",
    "run_perf_cli",
]

#: Workload scale for the case-study and sweep benchmarks.
BENCH_REQUESTS = int(os.environ.get("REPRO_BENCH_REQUESTS", "120"))

#: Workload scale for the 1000-agent scenario benchmark.
BENCH_SCALE_REQUESTS = int(os.environ.get("REPRO_BENCH_SCALE_REQUESTS", "200"))

#: Regression threshold: a metric more than this fraction worse than the
#: committed baseline fails the run.
DEFAULT_THRESHOLD = 0.25

#: Time of one :class:`Gauge` slice on the 2-core VM the end-to-end
#: benchmark's bounds were calibrated on, in a quiet spell; the ``ga_``
#: throughputs and the ``startup_`` rows are quoted at this speed.
NOMINAL_SLICE_S = 0.002

#: Gauge slices timed alongside each ``startup_`` measurement (half of
#: them before each ``ga_`` sample and each grid build).
GAUGE_SLICES = 10

#: Benchmarks whose value measures the machine's parallelism rather than
#: the code: comparing them across documents with different
#: ``meta.machine.cpu_count`` gates on hardware, so the regression check
#: skips (and reports) them when core counts differ.
PARALLELISM_BENCHMARKS = frozenset({"sweep_speedup", "sweep_parallel_wall"})


@dataclass(frozen=True)
class BenchResult:
    """One benchmark's outcome."""

    name: str
    value: float
    unit: str
    higher_is_better: bool
    detail: str = ""

    def to_json(self) -> Dict:
        return {
            "value": self.value,
            "unit": self.unit,
            "higher_is_better": self.higher_is_better,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class Regression:
    """One metric that got worse than the threshold allows."""

    name: str
    baseline: float
    current: float
    change: float  # signed fraction; negative = worse

    def describe(self) -> str:
        return (
            f"{self.name}: {self.baseline:.4g} -> {self.current:.4g} "
            f"({self.change:+.1%})"
        )


# ------------------------------------------------------------------ kernels


def _make_ga(
    n_tasks: int = 12,
    n_nodes: int = 16,
    warmstart_count: Optional[int] = None,
):
    """A GA over the paper's applications, mirroring the case-study setup."""
    from repro.pace.evaluation import EvaluationEngine
    from repro.pace.hardware import SGI_ORIGIN_2000
    from repro.pace.workloads import paper_applications
    from repro.scheduling.ga import GAConfig, GAScheduler

    engine = EvaluationEngine()
    models = list(paper_applications().values())
    rows = [
        engine.evaluate_counts(model, SGI_ORIGIN_2000, n_nodes) for model in models
    ]
    config = (
        GAConfig() if warmstart_count is None
        else GAConfig(warmstart_count=warmstart_count)
    )
    ga = GAScheduler(
        n_nodes,
        lambda tid, k: float(rows[tid % len(rows)][k - 1]),
        np.random.default_rng(2003),
        config,
        duration_row=lambda tid: rows[tid % len(rows)],
    )
    for tid in range(n_tasks):
        ga.add_task(tid, deadline=600.0 + 40.0 * tid)
    return ga


def _median_at_nominal(
    sample: Callable[..., object],
    repeats: int,
    *,
    prepare: Optional[Callable[[], object]] = None,
) -> Tuple[float, float]:
    """Median seconds of *repeats* timed runs of *sample*: ``(nominal, wall)``.

    Each run is timed right after ``GAUGE_SLICES // 2`` slices of its own
    :class:`Gauge` and scaled by them, so a slow spell that covers a run
    slows its slices too.  The median, not the fastest run: a gauge that
    happened to read slow makes its run look fast, and the fastest scaled
    run is the one that picks that error up.  With *prepare*, each run
    first calls it, untimed and before the slices, and passes what it
    returns to *sample*.
    """
    nominal, wall = [], []
    for _ in range(repeats):
        state = prepare() if prepare is not None else None
        gauge = Gauge()
        for _ in range(GAUGE_SLICES // 2):
            gauge.slice()
        start = time.perf_counter()
        if prepare is None:
            sample()
        else:
            sample(state)
        seconds = time.perf_counter() - start
        nominal.append(gauge.scale(seconds))
        wall.append(seconds)
    return statistics.median(nominal), statistics.median(wall)


def bench_ga_evolve(generations: int = 25, repeats: int = 5) -> BenchResult:
    """Generations/second of ``evolve``, at nominal speed.

    The median of *repeats* chunks of *generations* each, every chunk
    scaled by its own :class:`Gauge` slices (:func:`_median_at_nominal`).
    """
    free = [0.0] * 16
    ga = _make_ga()
    ga.evolve(3, free, 0.0)  # warm-up: population allocation, caches
    nominal, wall = _median_at_nominal(
        lambda: ga.evolve(generations, free, 0.0), repeats
    )
    return BenchResult(
        name="ga_evolve",
        value=generations / nominal,
        unit="generations/s",
        higher_is_better=True,
        detail=f"median of {repeats}x{generations} generations, "
        "12 tasks, 16 nodes, pop 50; gauge-scaled to nominal speed "
        f"({generations / wall:.0f} generations/s wall)",
    )


def bench_ga_evolve_event(
    calls: int = 30, generations: int = 10, repeats: int = 5
) -> BenchResult:
    """Generations/second of per-event ``evolve`` calls on a one-task queue.

    A scheduling event in the case study evolves ``generations`` (10)
    generations, and most events find one task queued, where a generation
    is almost all fixed dispatch cost rather than array arithmetic.  Each
    sample is *calls* consecutive calls, each paying its per-call set-up
    (initial costing, warm start); the median of *repeats*, at nominal
    speed (:func:`_median_at_nominal`).
    """
    free = [0.0] * 16
    ga = _make_ga(n_tasks=1)
    ga.evolve(3, free, 0.0)  # warm-up: population allocation

    def sample() -> None:
        for call in range(calls):
            ga.evolve(generations, free, float(call))

    nominal, wall = _median_at_nominal(sample, repeats)
    total = calls * generations
    return BenchResult(
        name="ga_evolve_event",
        value=total / nominal,
        unit="generations/s",
        higher_is_better=True,
        detail=f"median of {repeats}x{calls} calls of {generations} "
        "generations, 1 task, 16 nodes, pop 50; gauge-scaled to nominal "
        f"speed ({total / wall:.0f} generations/s wall)",
    )


def bench_ga_warmstart_convergence(generations: int = 25) -> BenchResult:
    """Generation-budget saving of the list-scheduling warm start.

    Two identical GAs (same seed, same tasks, same availability) differ
    only in ``warmstart_count``: the *cold* run (no seeds) evolves the
    full *generations* budget and its final best cost becomes the
    quality target; the *warm* run (default seeds) then evolves one
    generation at a time until it first matches that target.  The
    reported value is ``generations / generations_used`` — e.g. 5x means
    the seeded population reached the cold run's 25-gen quality in 5
    generations.  Fully seeded, so the number is deterministic on a
    given numpy version; 1.0 is the worst case (warm start never worse
    than cold under equal budgets is *not* implied — the floor simply
    means the whole budget was needed).
    """
    free = [0.0] * 16
    cold = _make_ga(warmstart_count=0)
    target = cold.evolve(generations, free, 0.0)
    warm = _make_ga()
    used = generations
    for generation in range(1, generations + 1):
        if warm.evolve(1, free, 0.0) <= target:
            used = generation
            break
    return BenchResult(
        name="ga_warmstart_convergence",
        value=generations / used,
        unit="x",
        higher_is_better=True,
        detail=f"warm start matched the cold {generations}-generation best "
        f"in {used} generations, 12 tasks, 16 nodes, pop 50",
    )


def bench_evaluate(repeats: int = 200) -> List[BenchResult]:
    """Warm-cache calls/second: scalar per-count loop vs ``evaluate_counts``."""
    from repro.pace.evaluation import EvaluationEngine
    from repro.pace.hardware import SGI_ORIGIN_2000
    from repro.pace.workloads import paper_applications

    engine = EvaluationEngine()
    models = list(paper_applications().values())
    max_nproc = 16
    for model in models:  # warm the cache: realistic steady state
        engine.evaluate_counts(model, SGI_ORIGIN_2000, max_nproc)

    start = time.perf_counter()
    for _ in range(repeats):
        for model in models:
            for k in range(1, max_nproc + 1):
                engine.evaluate_count(model, k, SGI_ORIGIN_2000)
    scalar_elapsed = time.perf_counter() - start
    n_calls = repeats * len(models) * max_nproc

    start = time.perf_counter()
    for _ in range(repeats):
        for model in models:
            engine.evaluate_counts(model, SGI_ORIGIN_2000, max_nproc)
    bulk_elapsed = time.perf_counter() - start

    detail = f"{len(models)} applications x {max_nproc} counts, warm cache"
    return [
        BenchResult("evaluate_scalar", n_calls / scalar_elapsed,
                    "evaluations/s", True, detail),
        BenchResult("evaluate_counts", n_calls / bulk_elapsed,
                    "evaluations/s", True, detail),
    ]


def bench_casestudy(requests: int) -> BenchResult:
    """Wall seconds for experiments 1–3 over one scaled workload."""
    from repro.experiments.tables import run_table3

    start = time.perf_counter()
    run_table3(request_count=requests)
    elapsed = time.perf_counter() - start
    return BenchResult(
        name="casestudy_wall",
        value=elapsed,
        unit="s",
        higher_is_better=False,
        detail=f"experiments 1-3, {requests} requests, seed 2003",
    )


def bench_sweep_speedup(requests: int, jobs: int = 4) -> List[BenchResult]:
    """Sequential and parallel wall time of a four-seed sweep; speedup."""
    from repro.experiments.sweep import run_seed_sweep

    seeds = [2003, 2004, 2005, 2006]
    start = time.perf_counter()
    run_seed_sweep(seeds, request_count=requests, jobs=1)
    sequential = time.perf_counter() - start
    start = time.perf_counter()
    run_seed_sweep(seeds, request_count=requests, jobs=jobs)
    parallel = time.perf_counter() - start
    detail = f"{len(seeds)} seeds x 3 experiments, {requests} requests, jobs={jobs}"
    return [
        BenchResult("sweep_sequential_wall", sequential, "s", False, detail),
        BenchResult("sweep_parallel_wall", parallel, "s", False, detail),
        BenchResult("sweep_speedup", sequential / parallel, "x", True, detail),
    ]


def bench_engine_events(
    n_agents: int = 1000,
    arrivals_per_agent: int = 150,
    burst: int = 48,
    events: int = 250_000,
    warmup: int = 30_000,
    repeats: int = 5,
) -> List[BenchResult]:
    """Events/second: the engine versus the single-heap reference.

    Both engines drive the identical workload through ``schedule`` —
    per-agent request arrivals, each fanning out a same-instant burst of
    dispatch events.  That is the measured shape of the real simulator:
    the transport has no base latency and delivers asynchronously, so an
    arrival's request/response/dispatch chain fires as one same-time
    cascade (a probe of a generated 300-agent scenario put 75 % of fires
    inside same-time runs of ~1200 events).  A second, ~2 % stream of
    arrivals is spread over fewer, sparser timers.  The backlog is
    six-figure, so every heap operation is ``O(log n_pending)``
    comparisons: C tuple comparisons in the engine, Python-level
    ``Event.__lt__`` calls in the reference.  Firing order is identical
    by construction — the engine equivalence property suite asserts
    byte-identity — so this pair measures pure heap mechanics on the same
    event sequence.  The transport's own same-instant deliveries, which
    travel in batches, are timed end to end by the ``grid1000`` workload
    of ``benchmarks/e2e``.

    Each row is the median of *repeats* runs at nominal speed
    (:func:`_median_at_nominal`: every run's engine is built and warmed
    up untimed, then timed right after its own gauge slices, with the
    collector off); the derived ``engine_partition_speedup`` ratio is
    their quotient (the name predates the single engine and is kept so
    committed baselines stay comparable).
    """
    from repro.sim.engine import Engine
    from repro.sim.events import Priority
    from repro.sim.reference import SingleHeapEngine

    def noop() -> None:
        return None

    def build(engine) -> None:
        sched = engine.schedule

        def arrival() -> None:
            t = engine.now
            for _ in range(burst):
                sched(t, noop, priority=Priority.SCHEDULING, label="dispatch")

        for i in range(n_agents):
            for j in range(arrivals_per_agent):
                sched(0.5 + j * 1.0 + (i % 97) / 97.0, arrival,
                      priority=Priority.ARRIVAL, label="arrival")
        for i in range(max(1, n_agents // 50)):
            for j in range(40):
                sched(1.0 + j * 2.5 + (i % 13) / 13.0, arrival,
                      priority=Priority.ARRIVAL, label="cross")

    def throughput(engine_type) -> Tuple[float, float]:
        def prepare():
            engine = engine_type()
            build(engine)
            engine.run(max_events=warmup)
            return engine

        def sample(engine) -> None:
            gc.disable()  # collector pauses land unevenly; time without
            try:
                engine.run(max_events=events)
            finally:
                gc.enable()

        nominal, wall = _median_at_nominal(sample, repeats, prepare=prepare)
        return events / nominal, events / wall

    tuple_heap, tuple_heap_wall = throughput(Engine)
    single, single_wall = throughput(SingleHeapEngine)
    detail = (
        f"median of {repeats}, {events} events after {warmup} warmup; "
        f"{n_agents} agents x {arrivals_per_agent} arrivals, burst {burst}, "
        f"{max(1, n_agents // 50)}x40 cross-agent; gauge-scaled to nominal "
        "speed"
    )
    return [
        BenchResult("engine_events_per_s", tuple_heap, "events/s", True,
                    f"{detail} ({tuple_heap_wall:.0f} events/s wall)"),
        BenchResult("engine_events_per_s_single_heap", single, "events/s",
                    True, f"{detail} ({single_wall:.0f} events/s wall)"),
    ]


def bench_event_alloc(count: int = 200_000, repeats: int = 5) -> BenchResult:
    """Hot-path object allocations/second.

    Constructs the two objects the simulator allocates per unit of work —
    a slotted :class:`~repro.sim.events.Event` and a tuple-backed
    :class:`~repro.net.message.Message` (endpoints interned once, as
    transports hold them) — in a tight loop.  Neither carries a
    ``__dict__``, the footprint that matters at 1000-agent resident-heap
    scale, and a message is one tuple allocation; this number is a
    *regression gate* on the hot allocation path (an accidental extra
    allocation or validation hook shows up here).  See
    ``benchmarks/perf/bench_alloc.py`` for the side-by-side with
    ``__dict__`` doubles.
    """
    from repro.net.message import Endpoint, Message, MessageKind
    from repro.sim.events import Event

    def noop() -> None:
        return None

    sender = Endpoint("bench-a", 1)
    recipient = Endpoint("bench-b", 2)

    def sample() -> None:
        for sequence in range(count):
            Event(1.0, 50, sequence, noop, "bench")
            Message(MessageKind.REQUEST, sender, recipient, None)

    nominal, wall = _median_at_nominal(sample, repeats)
    return BenchResult(
        name="engine_event_alloc",
        value=2 * count / nominal,
        unit="objects/s",
        higher_is_better=True,
        detail=f"median of {repeats}x{count} Event+Message pairs; "
        f"gauge-scaled to nominal speed ({2 * count / wall:.0f} objects/s wall)",
    )


def _scale_spec(requests: int):
    """The generated 1000-agent scenario both scale benchmarks run."""
    from repro.experiments.scenarios import ScenarioSpec

    return ScenarioSpec(
        name="bench-1000",
        agent_count=1000,
        request_count=requests,
        rate=2.0,
        arrival="poisson",
    )


def bench_scale_grid(
    requests: int = BENCH_SCALE_REQUESTS, repeats: int = 3
) -> BenchResult:
    """Completed requests/second of a full generated 1000-agent scenario.

    End to end: ``ScenarioSpec`` → topology + Poisson workload →
    ``build_grid`` → event loop to drain, FIFO policy.  The scale gate's
    integration number — it moves with engine throughput, transport
    delivery, and scheduler bookkeeping, unlike ``engine_events_per_s``
    which isolates the heap mechanics.  The median of *repeats* runs at
    nominal speed (:func:`_median_at_nominal`).
    """
    from repro.experiments.runner import run_experiment
    from repro.experiments.scenarios import generate_scenario
    from repro.scheduling.scheduler import SchedulingPolicy

    spec = _scale_spec(requests)
    scenario = generate_scenario(spec)
    config = spec.config(policy=SchedulingPolicy.FIFO)
    completed = []

    def sample() -> None:
        result = run_experiment(
            config, scenario.topology, workload=list(scenario.workload)
        )
        completed.append(len(result.records))

    nominal, wall = _median_at_nominal(sample, repeats)
    return BenchResult(
        name="scale_grid_1000",
        value=requests / nominal,
        unit="requests/s",
        higher_is_better=True,
        detail=f"median of {repeats}: 1000 agents, {requests} poisson requests "
        f"(rate 2/s), FIFO, {completed[-1]} completed; gauge-scaled to "
        f"nominal speed ({requests / wall:.0f} requests/s wall)",
    )


_GAUGE_BLOB = marshal.dumps([(i, str(i), float(i)) for i in range(2_000)])


class Gauge:
    """Times fixed slices of Python work that run no ``repro`` code.

    A copy of the end-to-end benchmark's gauge (``benchmarks/e2e/run.py``,
    which this module does not import).  Dict, heap and unmarshal
    traffic, like the simulator's own.  A shared VM has spells of a
    minute or two in which everything runs 30-100 % slower; the slices
    slow down with the program, so a time divided by the slice time
    measured alongside it stays put, while a change to the program moves
    the scaled time exactly as it moves the wall time.
    """

    def __init__(self) -> None:
        self.times: List[float] = []

    def slice(self) -> None:
        gc.disable()  # a collection of the program's heap is not slice time
        try:
            t0 = time.perf_counter()
            heap, table = [], {}
            for i in range(2_000):
                key = (i * 2654435761) % 1_000_003
                heapq.heappush(heap, (key, i))
                table[key] = (i, key)
                if len(heap) > 256:
                    table.pop(heapq.heappop(heap)[0], None)
            marshal.loads(_GAUGE_BLOB)
            self.times.append(time.perf_counter() - t0)
        finally:
            gc.enable()

    def scale(self, seconds: float) -> float:
        """*seconds* of wall time, expressed at the nominal machine speed.

        The mean slice time is the speed estimate.
        """
        return seconds * NOMINAL_SLICE_S * len(self.times) / sum(self.times)


def bench_startup_grid(builds: int = 5) -> BenchResult:
    """Seconds to set up the 1000-agent FIFO scenario in a warm process.

    ``generate_scenario`` + ``build_grid`` + ``start`` for the
    ``scale_grid_1000`` spec: the median of *builds* after one warm-up,
    each after a ``gc.collect()`` so that no build pays for collecting
    the grid before it, at nominal speed (:class:`Gauge` slices timed
    before each build).
    """
    from repro.experiments.runner import build_grid
    from repro.experiments.scenarios import generate_scenario
    from repro.scheduling.scheduler import SchedulingPolicy

    spec = _scale_spec(BENCH_SCALE_REQUESTS)
    config = spec.config(policy=SchedulingPolicy.FIFO)

    gauge = Gauge()

    def build() -> float:
        gc.collect()
        for _ in range(GAUGE_SLICES // 2):
            gauge.slice()
        start = time.perf_counter()
        build_grid(config, generate_scenario(spec).topology).start()
        return time.perf_counter() - start

    build()  # warm-up
    seconds = statistics.median([build() for _ in range(builds)])
    return BenchResult(
        name="startup_grid_1000_s",
        value=gauge.scale(seconds),
        unit="s",
        higher_is_better=False,
        detail=f"median of {builds} builds after a warm-up: generate_scenario "
        "+ build_grid + start, 1000 agents, FIFO, gc.collect() before each; "
        f"gauge-scaled to nominal speed ({seconds:.3f} s wall)",
    )


#: The run-path imports of an end-to-end benchmark child, in its order.
STARTUP_IMPORTS = (
    "repro.experiments",
    "repro.experiments.experiment7",
    "repro.experiments.scenarios",
    "repro.tasks.workflow",
)

#: Run by each fresh interpreter: NumPy before the timer (it is not
#: repro's cost), then the timed imports, then :class:`Gauge` slices in
#: the same process (imported after the timer, so the gauge's own module
#: is not part of the measured imports); prints the seconds at nominal
#: speed and as measured.
_STARTUP_PROBE = "\n".join(
    ["import time", "import numpy", "t0 = time.perf_counter()"]
    + [f"import {name}" for name in STARTUP_IMPORTS]
    + [
        "seconds = time.perf_counter() - t0",
        "from repro.perf import GAUGE_SLICES, Gauge",
        "gauge = Gauge()",
        "for _ in range(GAUGE_SLICES):",
        "    gauge.slice()",
        "print(gauge.scale(seconds), seconds)",
    ]
)


def bench_startup_import(interpreters: int = 7) -> BenchResult:
    """Seconds a fresh interpreter spends importing the run path.

    The median of *interpreters* children.  Each compiles every module
    from source, as the end-to-end benchmark's children do in a tree
    without bytecode caches: ``PYTHONDONTWRITEBYTECODE=1`` and a
    ``PYTHONPYCACHEPREFIX`` pointing at an empty directory, so no cached
    bytecode is read or written.  Each child scales its seconds to the
    nominal speed by :class:`Gauge` slices it times right after the
    imports.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    pythonpath = os.pathsep.join(
        path for path in (src, os.environ.get("PYTHONPATH")) if path
    )
    seconds, wall = [], []
    with tempfile.TemporaryDirectory() as empty_cache:
        env = dict(
            os.environ,
            PYTHONDONTWRITEBYTECODE="1",
            PYTHONPYCACHEPREFIX=empty_cache,
            PYTHONPATH=pythonpath,
        )
        for _ in range(interpreters):
            out = subprocess.run(
                [sys.executable, "-c", _STARTUP_PROBE],
                env=env, capture_output=True, text=True, timeout=300, check=True,
            )
            scaled, measured = out.stdout.split()[-2:]
            seconds.append(float(scaled))
            wall.append(float(measured))
    return BenchResult(
        name="startup_import_s",
        value=statistics.median(seconds),
        unit="s",
        higher_is_better=False,
        detail=f"median of {interpreters} fresh interpreters compiling from "
        "source; numpy imported before the timer; gauge-scaled to nominal "
        f"speed ({statistics.median(wall):.3f} s wall)",
    )


# -------------------------------------------------------------------- suite


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
        return out.stdout.strip()
    except Exception:  # pragma: no cover - detached environments
        return "unknown"


def machine_info() -> Dict[str, object]:
    """Attribution block: where these numbers were measured."""
    return {
        "python": sys.version.split()[0],
        "platform": platform_module.platform(),
        "machine": platform_module.machine(),
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
    }


#: Derived ratios: name -> (numerator benchmark, denominator benchmark).
#: Computed only when both inputs were run (``--only`` subsets skip the
#: rest).
DERIVED_RATIOS = {
    "evaluate_bulk_speedup": ("evaluate_counts", "evaluate_scalar"),
    "engine_partition_speedup": (
        "engine_events_per_s", "engine_events_per_s_single_heap",
    ),
}


def _suite_specs(requests: int, jobs: int):
    """(produced names, progress note, thunk) for every benchmark group."""
    return [
        (("ga_evolve",), "GA evolve...", lambda: [bench_ga_evolve()]),
        (("ga_evolve_event",), "GA evolve per event (one task)...",
         lambda: [bench_ga_evolve_event()]),
        (("ga_warmstart_convergence",), "warm-start convergence...",
         lambda: [bench_ga_warmstart_convergence()]),
        (("evaluate_scalar", "evaluate_counts"),
         "evaluation engine (scalar vs bulk)...", bench_evaluate),
        (("casestudy_wall",), f"case study wall time ({requests} requests)...",
         lambda: [bench_casestudy(requests)]),
        (("sweep_sequential_wall", "sweep_parallel_wall", "sweep_speedup"),
         f"sweep speedup (4 seeds, jobs={jobs})...",
         lambda: bench_sweep_speedup(requests, jobs=jobs)),
        (("engine_events_per_s", "engine_events_per_s_single_heap"),
         "event engine throughput (engine vs single-heap, 1000 agents)...",
         bench_engine_events),
        (("engine_event_alloc",),
         "hot-path allocation (slotted Event + Message)...",
         lambda: [bench_event_alloc()]),
        (("scale_grid_1000",),
         f"1000-agent generated scenario ({BENCH_SCALE_REQUESTS} requests)...",
         lambda: [bench_scale_grid()]),
        (("startup_import_s",), "run-path import in fresh interpreters...",
         lambda: [bench_startup_import()]),
        (("startup_grid_1000_s",),
         "1000-agent set-up (generate + build_grid + start)...",
         lambda: [bench_startup_grid()]),
    ]


def select_benchmarks(only: Optional[List[str]], requests: int = BENCH_REQUESTS,
                      jobs: int = 4):
    """The suite specs whose produced benchmark names match *only*.

    *only* is a list of substrings (``None``/empty = everything); a spec
    runs when any produced name contains any of the substrings.
    """
    specs = _suite_specs(requests, jobs)
    if not only:
        return specs
    return [
        spec for spec in specs
        if any(sub in name for name in spec[0] for sub in only)
    ]


def run_suite(
    *,
    requests: int = BENCH_REQUESTS,
    jobs: int = 4,
    progress: Optional[Callable[[str], None]] = None,
    only: Optional[List[str]] = None,
) -> Dict[str, object]:
    """Run the benchmarks (all, or the ``only`` subset); returns the doc."""

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    specs = select_benchmarks(only, requests, jobs)
    if only and not specs:
        raise ValueError(f"--only {only!r} matches no benchmark names")
    results: List[BenchResult] = []
    for _, message, thunk in specs:
        note(message)
        results.extend(thunk())

    by_name = {r.name: r for r in results}
    derived = {
        name: by_name[num].value / by_name[den].value
        for name, (num, den) in DERIVED_RATIOS.items()
        if num in by_name and den in by_name
    }
    return {
        "meta": {
            "git_sha": _git_sha(),
            "requests": requests,
            "jobs": jobs,
            "machine": machine_info(),
        },
        "benchmarks": {r.name: r.to_json() for r in results},
        "derived": {k: float(v) for k, v in derived.items()},
    }


def merge_suite_doc(existing: Optional[Dict], fresh: Dict) -> Dict:
    """Fold a (possibly partial) fresh run into an existing document.

    Benchmarks from *fresh* replace their namesakes in *existing*; every
    other committed benchmark is carried over untouched, and the derived
    ratios are recomputed from the merged set so a ``--only`` subset run
    can refresh e.g. ``engine_partition_speedup``'s numerator without
    re-timing its denominator.  The ``meta`` block always comes from *fresh* — the
    attribution (git SHA, machine) must describe the newest numbers in
    the file, and carried-over entries keep their per-benchmark
    ``detail`` strings for provenance.
    """
    if not existing:
        return fresh
    benchmarks = dict(existing.get("benchmarks", {}))
    benchmarks.update(fresh.get("benchmarks", {}))
    derived = {
        name: float(benchmarks[num]["value"]) / float(benchmarks[den]["value"])
        for name, (num, den) in DERIVED_RATIOS.items()
        if num in benchmarks and den in benchmarks
        and float(benchmarks[den]["value"]) != 0
    }
    return {
        "meta": fresh["meta"],
        "benchmarks": benchmarks,
        "derived": derived,
    }


# --------------------------------------------------------------- regression


def _cpu_count(doc: Dict) -> Optional[int]:
    value = doc.get("meta", {}).get("machine", {}).get("cpu_count")
    return None if value is None else int(value)


def check_regression(
    current: Dict,
    baseline: Dict,
    threshold: float = DEFAULT_THRESHOLD,
    *,
    skipped: Optional[List[str]] = None,
) -> List[Regression]:
    """Direction-aware comparison of two BENCH_PERF documents.

    A benchmark regresses when it moves more than *threshold* in its bad
    direction (lower for throughput/speedup metrics, higher for wall
    times).  Benchmarks present in only one document are ignored, so the
    suite can grow without invalidating committed baselines.

    When the two documents were measured on machines with different
    ``meta.machine.cpu_count``, the :data:`PARALLELISM_BENCHMARKS`
    comparisons are skipped — a process pool's speedup is bounded by the
    core count, so e.g. a single-CPU CI container's ≲1x ``sweep_speedup``
    baseline would otherwise poison the gate on any other machine.
    Skipped names are appended to *skipped* when a list is supplied.
    """
    regressions: List[Regression] = []
    base_benchmarks = baseline.get("benchmarks", {})
    cpu_now, cpu_base = _cpu_count(current), _cpu_count(baseline)
    cores_differ = (
        cpu_now is not None and cpu_base is not None and cpu_now != cpu_base
    )
    for name, entry in current.get("benchmarks", {}).items():
        base = base_benchmarks.get(name)
        if base is None:
            continue
        if cores_differ and name in PARALLELISM_BENCHMARKS:
            if skipped is not None:
                skipped.append(name)
            continue
        base_value = float(base["value"])
        value = float(entry["value"])
        if base_value == 0:
            continue
        if entry.get("higher_is_better", True):
            change = (value - base_value) / base_value
        else:
            change = (base_value - value) / base_value
        if change < -threshold:
            regressions.append(Regression(name, base_value, value, change))
    return regressions


def render_report(doc: Dict) -> str:
    """Human-readable table of one BENCH_PERF document."""
    lines = [
        f"git {doc['meta']['git_sha'][:12]}  "
        f"requests={doc['meta']['requests']}  jobs={doc['meta']['jobs']}",
        "",
        f"{'benchmark':<24} {'value':>12} unit",
    ]
    for name, entry in doc["benchmarks"].items():
        lines.append(f"{name:<24} {entry['value']:>12.2f} {entry['unit']}")
    lines.append("")
    for name, value in doc.get("derived", {}).items():
        lines.append(f"{name:<24} {value:>12.2f} x")
    return "\n".join(lines)


def run_perf_cli(
    output: str = "BENCH_PERF.json",
    *,
    baseline: Optional[str] = None,
    jobs: int = 4,
    requests: int = BENCH_REQUESTS,
    only: Optional[List[str]] = None,
    update: bool = False,
) -> int:
    """Run the suite, write *output*, compare against *baseline* if present.

    Returns a process exit code: 0 on success, 1 when any benchmark
    regressed by more than 25 % against the baseline, 2 when the run is
    refused before anything is timed.  When *baseline* is ``None`` the
    pre-existing *output* file (the committed baseline) serves as the
    comparison point.  *only* restricts the run to benchmarks whose names
    contain any of the given substrings; written as-is, *output* would
    then hold just that subset, so a subset run whose *output* is the
    existing file it compares against is refused unless *update* is
    given.  With *update* the file is rewritten in place: fresh results
    are merged over the existing document (untouched benchmarks carried
    over, derived ratios recomputed, ``meta`` refreshed with the current
    git SHA and machine), which is how a committed ``BENCH_PERF.json`` is
    re-baselined without re-running everything.
    """
    baseline_path = baseline if baseline is not None else output
    if (
        only
        and not update
        and os.path.exists(output)
        and os.path.realpath(output) == os.path.realpath(baseline_path)
    ):
        print(
            f"refusing to overwrite the baseline {output} with an --only "
            "subset: pass --update to merge the subset into it, or "
            "--output PATH to write it elsewhere",
            file=sys.stderr,
        )
        return 2
    baseline_doc = None
    if baseline_path and os.path.exists(baseline_path):
        with open(baseline_path, "r", encoding="utf-8") as handle:
            baseline_doc = json.load(handle)

    doc = run_suite(
        requests=requests, jobs=jobs,
        progress=lambda msg: print(f"  {msg}", file=sys.stderr),
        only=only,
    )
    if update:
        existing = None
        if os.path.exists(output):
            with open(output, "r", encoding="utf-8") as handle:
                existing = json.load(handle)
        doc = merge_suite_doc(existing, doc)
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(render_report(doc))
    print(f"\nwrote {output}", file=sys.stderr)

    if baseline_doc is None:
        print("no baseline to compare against", file=sys.stderr)
        return 0
    skipped: List[str] = []
    regressions = check_regression(doc, baseline_doc, skipped=skipped)
    if skipped:
        print(
            f"skipped cross-machine comparisons (cpu_count "
            f"{_cpu_count(doc)} vs baseline {_cpu_count(baseline_doc)}): "
            + ", ".join(skipped),
            file=sys.stderr,
        )
    if regressions:
        print("\nPERFORMANCE REGRESSIONS (>25% worse than baseline):")
        for regression in regressions:
            print(f"  {regression.describe()}")
        return 1
    print(f"no regressions vs {baseline_path}", file=sys.stderr)
    return 0
