#!/usr/bin/env python3
"""End-to-end benchmark of the grid load-balancing reproduction.

Run every workload and print its metrics (exit status 1 if a correctness
check fails)::

    python3 benchmarks/e2e/run.py [--seed N] [--trace] [--out results.json]

Run one workload for a fixed time and print one JSON result line::

    python3 benchmarks/e2e/run.py --workload grid1000 --seed 7 --seconds 25 --trace 0

A timed run (``--workload``) runs as many inputs as fit in ``--seconds``,
each derived from ``--seed`` (input 0 is the seed itself) and each in a
fresh child process.  It then re-runs input 0, traced when ``--trace`` is
on, and requires byte-identical simulated outputs.  A full run (no
``--workload``) gives every workload six inputs, the workloads taking
turns unit by unit so that a slow spell on a shared machine hits all of
them alike.  Timings are medians, first over the units of one input
and then over the inputs.  See README.md for the workloads, the metrics
and how their bounds were set.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import marshal
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

from summary import describe, median  # noqa: E402

#: Workload name -> why it exists.
WORKLOADS: Dict[str, str] = {
    "casestudy": "Table 2 experiments 1-3 on the Fig. 7 grid: the paper's own configuration, GA-bound",
    "casestudy_burst": "experiment 3 at twice the arrival rate: long GA queues, lower evaluation reuse",
    "grid1000": "1000-agent FIFO tree: no GA; engine, transport and advertisement carry the time",
    "workflow_dag": "Experiment 7 montage and pipeline cells: data transfers and GA precedence constraints",
}

#: The end-to-end metrics: name -> unit.  Times are scaled to the nominal
#: machine speed (see :class:`Gauge`).
END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Host measurements reported for every workload: the end-to-end metrics
#: plus the wall times they were scaled from.
HOST_METRICS = {**END_TO_END, "run_wall_s": "s", "setup_wall_s": "s"}

#: Time of one :class:`Gauge` slice on the 2-core VM the bounds were
#: calibrated on, in a quiet spell; scaled times are quoted at this speed.
NOMINAL_SLICE_S = 0.002

#: Gauge slices timed before set-up (half as many again after the run),
#: and the spacing of the slices timed during the run.
GAUGE_SLICES = 10
GAUGE_INTERVAL_S = 0.025

#: Seconds one run measures when ``--seconds`` is not given.
DEFAULT_SECONDS = 25

#: Fewest inputs a timed run measures, however slow the machine.
MIN_INPUTS = 3

#: Inputs per workload of a full run.
FULL_RUN_INPUTS = 6

#: A traced unit's wall time over an untraced one's (measured: 1.3-1.4).
TRACE_COST = 1.5

#: A child that takes longer than this has hung.
CHILD_TIMEOUT_S = 150

#: Largest tolerated gap between the traced run's layer times plus
#: unattributed time and its measured run time.
ATTRIBUTION_TOLERANCE = 0.05


def sub_seed(seed: int, k: int) -> int:
    """Seed of input *k* of a run: the run's seed itself for ``k == 0``."""
    if k == 0:
        return seed
    digest = hashlib.sha256(f"{seed}/{k}".encode("ascii")).digest()
    return int.from_bytes(digest[:4], "big")


# ------------------------------------------------------------------ child


_GAUGE_BLOB = marshal.dumps([(i, str(i), float(i)) for i in range(2_000)])


class Gauge:
    """Times fixed slices of Python work that run no ``repro`` code.

    Dict, heap and unmarshal traffic, like the simulator's own.  A shared
    VM has spells of a minute or two in which everything runs 30-100 %
    slower; the slices slow down with the program, so a time divided by
    the slice time measured alongside it stays put.  A change to the
    program moves the scaled time exactly as it moves the wall time.
    """

    def __init__(self) -> None:
        self.times: List[float] = []

    @property
    def seconds(self) -> float:
        """Total time spent in slices."""
        return sum(self.times)

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

        The mean slice time is the speed estimate: slices spread evenly
        over the measured interval average its slow and fast moments.
        """
        return seconds * NOMINAL_SLICE_S * len(self.times) / self.seconds


def child_main(workload: str, seed: int, traced: bool, spans: Optional[str]) -> int:
    """Run one unit in this process and print its result as one JSON line."""
    import resource

    import numpy  # noqa: F401 - imported before the timer: not repro's set-up

    setup_gauge = Gauge()
    for _ in range(GAUGE_SLICES):
        setup_gauge.slice()
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads
    from layers import SpanRecorder

    import_s = time.perf_counter() - t0
    recorder = SpanRecorder().install() if traced else None
    phases = workloads.Phases()
    failures: List[str] = []
    run_gauge = Gauge()
    next_slice = [0.0]

    def tick() -> None:
        if time.perf_counter() >= next_slice[0]:
            run_gauge.slice()
            next_slice[0] = time.perf_counter() + GAUGE_INTERVAL_S

    run_wall_s = 0.0
    try:
        grids, headline = workloads.prepare(workload, seed, phases)
        for grid in grids:
            if recorder is not None:
                recorder.begin_window()
            t1 = time.perf_counter()
            try:
                workloads.drive(grid, tick=None if traced else tick)
            except workloads.WorkloadError as exc:
                failures.append(str(exc))
            finally:
                run_wall_s += time.perf_counter() - t1
                if recorder is not None:
                    recorder.end_window()
    finally:
        if recorder is not None:
            recorder.restore()
    run_wall_s -= run_gauge.seconds
    for _ in range(GAUGE_SLICES // 2):
        run_gauge.slice()
    setup_wall_s = import_s + phases.total
    outputs = [workloads.grid_outputs(grid) for grid in grids]
    failures += workloads.correctness_failures(outputs)
    head = workloads.headline_outputs(workload, outputs, headline)
    result = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "run_s": run_gauge.scale(run_wall_s),
        "setup_s": setup_gauge.scale(setup_wall_s),
        "run_wall_s": run_wall_s,
        "setup_wall_s": setup_wall_s,
        "slices": {"setup": setup_gauge.times, "run": run_gauge.times},
        "phases": {"import": import_s, **phases.seconds},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "requests": sum(o["requests"] for o in outputs),
        "failed": sum(o["requests"] - o["successes"] for o in outputs),
        "failures": failures,
        "digest": hashlib.sha256(
            "".join(o["digest"] for o in outputs).encode("ascii")
        ).hexdigest(),
        "simulated": workloads.simulated_metrics(head),
        "counters": workloads.counters(grids, outputs, head),
        "trends": workloads.paper_trends(outputs) if workload == "casestudy" else [],
    }
    if recorder is not None:
        result["trace"] = recorder.summary()
        if spans:
            recorder.write_json(spans)
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------- parent


def run_child(workload: str, seed: int, traced: bool, env: dict) -> dict:
    """Run one unit in a fresh child process and return its result."""
    cmd = [sys.executable, str(HERE / "run.py"), "--child", workload, "--seed", str(seed)]
    if traced:
        OUT.mkdir(exist_ok=True)
        cmd += ["--trace", "1", "--spans", str(OUT / f"spans-{workload}-{seed}.json")]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        lines = [line for line in proc.stdout.splitlines() if line.strip()]
        if proc.returncode != 0 or not lines:
            result = {"broken": f"child exited with {proc.returncode}"}
        else:
            result = json.loads(lines[-1])
    except subprocess.TimeoutExpired:
        result = {"broken": f"child timed out after {CHILD_TIMEOUT_S} s"}
    result.update(workload=workload, seed=seed, traced=traced,
                  wall_s=time.monotonic() - t0)
    return result


def child_env() -> dict:
    """The parent's environment with every BLAS pool capped at the CPU count."""
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def summarise(workload: str, results: List[dict]) -> dict:
    """Medians, checks and per-layer metrics of one workload's units."""
    import layers

    failures = [f"{r['seed']}: {r['broken']}" for r in results if "broken" in r]
    done = [r for r in results if "broken" not in r]
    for r in done:
        failures += [f"{r['seed']}: {f}" for f in r["failures"]]
    by_seed: Dict[int, List[dict]] = {}
    for r in done:
        by_seed.setdefault(r["seed"], []).append(r)
    for seed, group in by_seed.items():
        if len({r["digest"] for r in group}) > 1:
            failures.append(f"{seed}: repeats of one input gave different outputs")
        if len({json.dumps(r["simulated"], sort_keys=True) for r in group}) > 1:
            failures.append(f"{seed}: repeats of one input gave different metrics")
    untraced = {s: [r for r in g if not r["traced"]] for s, g in by_seed.items()}
    untraced = {s: g for s, g in untraced.items() if g}
    end_to_end = {}
    for name, unit in HOST_METRICS.items():
        by_input = {str(s): median([r[name] for r in g]) for s, g in untraced.items()}
        if by_input:
            samples = list(by_input.values())
            end_to_end[name] = {"unit": unit, **describe(samples), "samples": samples,
                                "by_input": by_input}
    simulated = {}
    first = [g[0] for g in by_seed.values()]
    for name in (first[0]["simulated"] if first else {}):
        values = [r["simulated"][name] for r in first]
        simulated[name] = {**describe(values), "by_input": {str(r["seed"]): r["simulated"][name] for r in first}}
    per_layer = {}
    missing: List[str] = []
    traced = [r for r in done if r["traced"]]
    if traced:
        t = traced[0]
        baseline = [r["run_s"] for r in untraced.get(t["seed"], [])]
        per_layer = layers.per_layer_metrics(
            t["trace"], t["counters"], t["run_s"], t["phases"],
            median(baseline) if baseline else None,
        )
        total = sum(t["trace"]["layer_self_s"].values()) + t["trace"]["unattributed_s"]
        wall = t["run_wall_s"]
        if abs(total - wall) > ATTRIBUTION_TOLERANCE * wall:
            failures.append(
                f"trace: layer times sum to {total:.3f} s, run took {wall:.3f} s"
            )
        missing = t["trace"]["missing"]
    return {
        "workload": workload,
        "correct": not failures,
        "failures": failures,
        "attempted": max(1, sum(r["requests"] for r in done)),
        "failed": sum(r["failed"] for r in done),
        "units": len(results),
        "end_to_end": end_to_end,
        "simulated": simulated,
        "per_layer": per_layer,
        "unwrapped": missing,
        "trends": first[0]["trends"] if first else [],
    }


def timed_run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload: as many inputs as fit in *seconds*, then input 0 again."""
    env = child_env()
    t0 = time.monotonic()
    results: List[dict] = []
    while True:
        results.append(run_child(workload, sub_seed(seed, len(results)), False, env))
        unit = median([r["wall_s"] for r in results])
        rerun = unit * (TRACE_COST if trace else 1.0)
        if len(results) >= MIN_INPUTS and time.monotonic() - t0 + unit + rerun > seconds:
            break
    results.append(run_child(workload, seed, trace, env))
    return summarise(workload, results)


def full_run(seed: int, trace: bool) -> Dict[str, dict]:
    """Every workload on :data:`FULL_RUN_INPUTS` inputs, taking turns unit by unit."""
    env = child_env()
    units = [(sub_seed(seed, k), False) for k in range(FULL_RUN_INPUTS)] + [(seed, trace)]
    results: Dict[str, List[dict]] = {w: [] for w in WORKLOADS}
    for s, traced in units:
        for w in WORKLOADS:
            print(f"  {w} input {s}{' traced' if traced else ''}", file=sys.stderr, flush=True)
            results[w].append(run_child(w, s, traced, env))
    return {w: summarise(w, rs) for w, rs in results.items()}


# ----------------------------------------------------------------- output


def print_summary(doc: dict, trace: bool) -> None:
    w = doc["workload"]
    print(f"\n== {w}: {WORKLOADS[w]}")
    print(f"   {doc['units']} units, {doc['attempted']} requests, {doc['failed']} failed, "
          f"{'correct' if doc['correct'] else 'INCORRECT'}")
    for f in doc["failures"]:
        print(f"   ! {f}")
    print(f"   {'metric':<22}{'unit':<8}{'median':>12}{'q1':>12}{'q3':>12}{'n':>4}")
    for name, m in doc["end_to_end"].items():
        print(f"   {name:<22}{m['unit']:<8}{m['median']:>12.4f}{m['q1']:>12.4f}{m['q3']:>12.4f}{m['n']:>4}")
    print("   simulated (deterministic per input; median over inputs)")
    for name, m in doc["simulated"].items():
        print(f"   {name:<22}{'':<8}{m['median']:>12.4f}{m['q1']:>12.4f}{m['q3']:>12.4f}{m['n']:>4}")
    if doc["trends"]:
        held = [name for name, ok in doc["trends"] if ok]
        missed = [name for name, ok in doc["trends"] if not ok]
        print(f"   paper trends on input 0 (information only): {len(held)} hold"
              + (f", not held: {', '.join(missed)}" if missed else ""))
    if trace:
        print("   per layer (traced re-run of input 0)")
        for name, value in doc["per_layer"].items():
            print(f"   {name:<30}{value:>14.6g}")
        if doc["unwrapped"]:
            print(f"   not in the program, so not traced: {', '.join(doc['unwrapped'])}")


def result_line(doc: dict, trace: bool) -> str:
    """The one-line JSON result of a timed run."""
    import layers

    if trace:
        metrics = {
            name: {"value": doc["per_layer"].get(name, 0.0), "unit": unit}
            for name, unit, _ in layers.PER_LAYER
        }
    else:
        metrics = {
            name: {"value": doc["end_to_end"][name]["median"], "unit": unit}
            for name, unit in END_TO_END.items()
            if name in doc["end_to_end"]
        }
    return json.dumps({
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    })


# ------------------------------------------------------------------- main


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload for --seconds and print a JSON line")
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="re-run input 0 under the span recorder and report per-layer metrics")
    parser.add_argument("--out", help="write the full result document to this JSON file")
    parser.add_argument("--child", choices=sorted(WORKLOADS), help=argparse.SUPPRESS)
    parser.add_argument("--spans", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args.child, args.seed, bool(args.trace), args.spans)
    trace = bool(args.trace)
    if args.workload:
        docs = {args.workload: timed_run(args.workload, args.seed, args.seconds, trace)}
    else:
        docs = full_run(args.seed, trace)
    for doc in docs.values():
        print_summary(doc, trace)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "trace": trace, "workloads": docs}, fh, indent=1)
    correct = all(doc["correct"] for doc in docs.values())
    if args.workload:
        print(result_line(docs[args.workload], trace))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
