"""Command-line interface: ``python -m repro <command>``.

Commands map one-to-one onto the paper's evaluation artefacts:

* ``table1`` — the seven applications' predicted execution times;
* ``table2`` — the experiment design matrix;
* ``table3`` — run experiments 1–3 and print Table 3 (+ trend checks);
* ``figures`` — run the experiments and print/plot Figures 8–10;
* ``workload`` — inspect the seeded §4.1 request workload;
* ``predict`` — one-off PACE prediction for an application/platform;
* ``experiment4`` … ``experiment7`` — the cell × contender tournaments
  beyond the paper, one subcommand per spec in :data:`TOURNAMENTS`.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.errors import CheckpointError, ExperimentError, ReproError
from repro.experiments.config import ExperimentConfig, table2_experiments
from repro.experiments.experiment4 import (
    EXPERIMENT4,
    degradation_config,
    experiment4_base_config,
)
from repro.experiments.experiment5 import EXPERIMENT5
from repro.experiments.experiment6 import EXPERIMENT6
from repro.experiments.experiment7 import EXPERIMENT7
from repro.experiments.runner import (
    DegradedRun,
    checkpoint_run,
    resume_run,
    run_degraded,
    run_experiment,
    run_soak,
)
from repro.experiments.tables import (
    check_paper_trends,
    run_table3,
    table1_rows,
)
from repro.experiments.tournament import (
    add_arguments,
    plan_tournament,
    render_tournament,
    report_checks,
    run_tournament,
    tournament_json,
)
from repro.experiments.workload import generate_workload, workload_summary
from repro.metrics.ascii_plot import ascii_line_chart
from repro.metrics.reporting import figure_series, render_figure_series, render_table3
from repro.pace.evaluation import EvaluationEngine
from repro.pace.hardware import DEFAULT_CATALOGUE
from repro.pace.workloads import paper_application_specs
from repro.utils.tables import render_table

__all__ = ["main", "build_parser", "TOURNAMENTS"]

#: The tournament experiments, one subcommand each.
TOURNAMENTS = (EXPERIMENT4, EXPERIMENT5, EXPERIMENT6, EXPERIMENT7)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Agent-based grid load balancing (Cao et al., IPPS 2003) "
        "— reproduction toolkit",
    )
    parser.set_defaults(tournament=None)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print Table 1 (application predictions)")
    sub.add_parser("table2", help="print Table 2 (experiment design)")

    def add_jobs(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument(
            "--jobs", type=int, default=1, metavar="N",
            help="worker processes for the experiment fabric "
            "(1 = sequential; results are seed-identical either way)",
        )

    def add_run_selection(cmd: argparse.ArgumentParser, *, requests: int,
                          verb: str) -> None:
        """The one-run selection ``trace`` and ``checkpoint`` share."""
        cmd.add_argument("--requests", type=int, default=requests)
        cmd.add_argument("--seed", type=int, default=2003)
        cmd.add_argument("--experiment", type=int, choices=(1, 2, 3), default=3,
                         help=f"which Table 2 configuration to {verb} "
                         "(ignored when --loss/--churn select the degraded runner)")
        cmd.add_argument("--loss", type=float, default=0.0, metavar="P",
                         help="per-message drop probability (switches to the "
                         "resilient experiment-4 runner)")
        cmd.add_argument("--churn", type=float, default=0.0, metavar="R",
                         help="fraction of non-head agents crashed once "
                         "(switches to the resilient experiment-4 runner)")

    table3 = sub.add_parser("table3", help="run experiments 1-3, print Table 3")
    table3.add_argument("--requests", type=int, default=600)
    table3.add_argument("--seed", type=int, default=2003)
    table3.add_argument("--json", metavar="PATH",
                        help="also write full results as JSON")
    table3.add_argument("--csv", metavar="PATH",
                        help="also write Table 3 as CSV")
    add_jobs(table3)

    sweep = sub.add_parser(
        "sweep", help="seed-robustness sweep of the paper's conclusions"
    )
    sweep.add_argument("--requests", type=int, default=600)
    sweep.add_argument("--seeds", type=int, nargs="+",
                       default=[2003, 2004, 2005])
    add_jobs(sweep)

    figures = sub.add_parser("figures", help="run experiments, print Figures 8-10")
    figures.add_argument("--requests", type=int, default=600)
    figures.add_argument("--seed", type=int, default=2003)
    figures.add_argument("--charts", action="store_true", help="draw ASCII curves")
    add_jobs(figures)

    for spec in TOURNAMENTS:
        cmd = sub.add_parser(spec.name, help=spec.help)
        add_arguments(cmd, spec)
        cmd.set_defaults(tournament=spec, usage_error=cmd.error)

    perf = sub.add_parser(
        "perf", help="run the performance benchmark suite, write BENCH_PERF.json"
    )
    perf.add_argument("--output", metavar="PATH", default="BENCH_PERF.json")
    perf.add_argument("--baseline", metavar="PATH", default=None,
                      help="compare against a committed BENCH_PERF.json "
                      "and exit non-zero on >25%% regression")
    perf.add_argument("--jobs", type=int, default=4, metavar="N",
                      help="worker processes for the parallel-speedup benchmark")
    perf.add_argument("--only", action="append", metavar="SUBSTRING",
                      help="run only benchmarks whose name contains this "
                      "substring (repeatable); refused when the output is the "
                      "baseline it compares against, unless --update is given")
    perf.add_argument("--update", action="store_true",
                      help="rewrite the output file in place: merge fresh "
                      "results over the existing document (benchmarks not "
                      "re-run are carried over, derived ratios recomputed, "
                      "meta refreshed with the current git SHA and machine)")

    trace = sub.add_parser(
        "trace",
        help="run one experiment with structured tracing on and inspect "
        "the resulting record stream",
    )
    add_run_selection(trace, requests=12, verb="trace")
    trace.add_argument("--out", metavar="PATH",
                       help="write the canonical JSONL trace to PATH")
    trace.add_argument("--request", type=int, default=None, metavar="ID",
                       help="print the span tree for one request id")
    trace.add_argument("--check", action="store_true",
                       help="run the trace invariant checker; exit non-zero "
                       "on any violation")

    checkpoint = sub.add_parser(
        "checkpoint",
        help="run an experiment for N events, then write a resumable snapshot",
    )
    add_run_selection(checkpoint, requests=60, verb="run")
    checkpoint.add_argument("--at-step", type=int, default=1000, metavar="N",
                            help="number of simulation events to run before "
                            "snapshotting")
    checkpoint.add_argument("--out", metavar="PATH", required=True,
                            help="snapshot file to write")
    checkpoint.set_defaults(usage_error=checkpoint.error)

    resume = sub.add_parser(
        "resume",
        help="resume a snapshot (strict, degraded or soak run) to completion",
    )
    resume.add_argument("snapshot", metavar="PATH", help="snapshot file to resume")
    resume.add_argument("--checkpoint-every", type=int, default=None, metavar="N",
                        help="keep re-snapshotting every N events while "
                        "resuming (needs --checkpoint-path)")
    resume.add_argument("--checkpoint-path", metavar="PATH", default=None,
                        help="where the periodic re-snapshots go (a soak "
                        "run also rewrites it at every window boundary)")
    resume.set_defaults(usage_error=resume.error)

    soak = sub.add_parser(
        "soak",
        help="long-horizon soak run: continuous arrivals, windowed metrics",
    )
    soak.add_argument("--requests", type=int, default=6000)
    soak.add_argument("--seed", type=int, default=2003)
    soak.add_argument("--window", type=float, default=2000.0, metavar="SECONDS",
                      help="width of each metrics window in simulated time")
    soak.add_argument("--checkpoint", metavar="PATH", default=None,
                      help="rewrite a resumable snapshot at every window "
                      "boundary")

    scenario = sub.add_parser(
        "scenario",
        help="generate a parametric scale scenario (grid + workload); "
        "optionally run it",
    )
    scenario.add_argument("--agents", type=int, default=500, metavar="N",
                          help="grid size in agents/clusters (1-5000)")
    scenario.add_argument("--branching", type=int, default=3, metavar="K",
                          help="hierarchy fan-out (complete K-ary tree)")
    scenario.add_argument("--nproc", type=int, default=16, metavar="N",
                          help="processing nodes per cluster")
    scenario.add_argument("--arrival", default="poisson",
                          choices=("uniform", "poisson", "mmpp", "diurnal",
                                   "pareto"),
                          help="arrival process for the request stream")
    scenario.add_argument("--rate", type=float, default=1.0, metavar="R",
                          help="mean arrival rate in requests per virtual "
                          "second")
    scenario.add_argument("--requests", type=int, default=600)
    scenario.add_argument("--seed", type=int, default=2003)
    scenario.add_argument("--deadline-scale", type=float, default=1.0,
                          metavar="F",
                          help="multiplier on every drawn deadline offset")
    scenario.add_argument("--policy", default="fifo", choices=("fifo", "ga"),
                          help="scheduling policy when running the scenario")
    scenario.add_argument("--chaos", default="none",
                          choices=("none", "loss", "coordinator-churn",
                                   "stragglers", "grey-combo"),
                          help="chaos tier folded into the scenario: faults "
                          "+ churn + the robustness stack (ACK/retry and "
                          "self-healing membership)")
    scenario.add_argument("--run", action="store_true",
                          help="run the generated scenario to completion "
                          "(default: only print its shape and fingerprint)")
    scenario.add_argument("--check", action="store_true",
                          help="run with tracing on and the trace invariant "
                          "checker; exit non-zero on any violation "
                          "(implies --run)")

    workload = sub.add_parser("workload", help="inspect the seeded workload")
    workload.add_argument("--requests", type=int, default=600)
    workload.add_argument("--seed", type=int, default=2003)
    workload.add_argument("--head", type=int, default=10, help="show first N items")

    predict = sub.add_parser("predict", help="one-off PACE prediction")
    predict.add_argument("application", choices=sorted(paper_application_specs()))
    predict.add_argument("--platform", default="SGIOrigin2000",
                         choices=DEFAULT_CATALOGUE.names())
    predict.add_argument("--max-nproc", type=int, default=16)
    return parser


def _cmd_table1() -> None:
    headers = ["application", "deadlines"] + [str(k) for k in range(1, 17)]
    rows = [
        [name, f"[{b[0]:.0f},{b[1]:.0f}]"] + [f"{t:.0f}" for t in times]
        for name, b, times in table1_rows()
    ]
    print(render_table(headers, rows,
                       title="Table 1: PACE predictions on SGIOrigin2000 (s)"))


def _cmd_table2() -> None:
    rows = [
        ["FIFO Algorithm", "x", "", ""],
        ["GA Algorithm", "", "x", "x"],
        ["Agent-based Service Discovery", "", "", "x"],
    ]
    print(render_table(["", "1", "2", "3"], rows, title="Table 2: experiment design"))
    for cfg in table2_experiments():
        print(f"  {cfg.name}: policy={cfg.policy.value}, agents={cfg.agents_enabled}")


def _run(requests: int, seed: int, jobs: int = 1):
    print(f"Running experiments 1-3 ({requests} requests, seed {seed}, "
          f"jobs {jobs})...", file=sys.stderr)
    return run_table3(master_seed=seed, request_count=requests, jobs=jobs)


def _cmd_table3(
    requests: int,
    seed: int,
    json_path: Optional[str] = None,
    csv_path: Optional[str] = None,
    jobs: int = 1,
) -> int:
    results = _run(requests, seed, jobs)
    print(render_table3([r.metrics for r in results], title="Table 3"))
    print()
    failures = 0
    for check in check_paper_trends(results):
        status = "PASS" if check.holds else "FAIL"
        failures += not check.holds
        print(f"  {status}  {check.name}: {check.detail}")
    if json_path:
        from repro.experiments.export import results_to_json

        with open(json_path, "w", encoding="utf-8") as handle:
            handle.write(results_to_json(results))
        print(f"wrote {json_path}", file=sys.stderr)
    if csv_path:
        from repro.experiments.export import table3_to_csv

        with open(csv_path, "w", encoding="utf-8") as handle:
            handle.write(table3_to_csv(results))
        print(f"wrote {csv_path}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_sweep(requests: int, seeds: List[int], jobs: int = 1) -> int:
    from repro.experiments.sweep import run_seed_sweep

    print(f"Sweeping seeds {seeds} ({requests} requests each, jobs {jobs})...",
          file=sys.stderr)
    summary = run_seed_sweep(seeds, request_count=requests, jobs=jobs)
    rows = [
        [name, f"{fraction:.0%}"]
        for name, fraction in sorted(summary.trend_support.items())
    ]
    print(render_table(["trend", "seeds supporting"], rows,
                       title=f"Trend support across {len(seeds)} seeds"))
    print()
    metric_rows = []
    for i in range(3):
        cells = [f"experiment {i + 1}"]
        for metric in ("epsilon", "upsilon", "beta"):
            mean, std = summary.total(i, metric)
            cells.append(f"{mean:.0f} ± {std:.0f}")
        metric_rows.append(cells)
    print(render_table(["", "ε (s)", "υ (%)", "β (%)"], metric_rows,
                       title="Grid totals, mean ± std over seeds"))
    return 0 if all(f == 1.0 for f in summary.trend_support.values()) else 1


def _cmd_figures(requests: int, seed: int, charts: bool, jobs: int = 1) -> None:
    results = _run(requests, seed, jobs)
    metrics = [r.metrics for r in results]
    for metric, title in (
        ("epsilon", "Figure 8: advance time ε (s)"),
        ("upsilon", "Figure 9: resource utilisation υ (%)"),
        ("beta", "Figure 10: load balancing level β (%)"),
    ):
        print(render_figure_series(metrics, metric, title=title))
        print()
        if charts:
            print(ascii_line_chart(
                figure_series(metrics, metric),
                highlight=["S1", "S2", "S11", "S12"],
                x_labels=[f"exp {i + 1}" for i in range(len(results))],
                title=title + " — curves",
            ))
            print()


def _cmd_tournament(args) -> int:
    spec = args.tournament
    try:
        plan = plan_tournament(spec, args)
    except ReproError as exc:
        args.usage_error(str(exc))
    print(f"Running {spec.name} ({len(plan)} points, seed {args.seed})...",
          file=sys.stderr)
    result = run_tournament(spec, args, plan)
    print(render_tournament(spec, result))
    if args.json:
        import json as json_module

        with open(args.json, "w", encoding="utf-8") as handle:
            json_module.dump(tournament_json(result), handle, indent=2)
        print(f"wrote {args.json}", file=sys.stderr)
    return report_checks(spec, result, args) if args.check else 0


def _cmd_trace(args) -> int:
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.records import canonical_lines
    from repro.obs.spans import build_request_spans, render_span_tree
    from repro.obs.trace import MemorySink, Tracer

    metrics = MetricsRegistry()
    tracer = Tracer(MemorySink(), metrics=metrics)
    config = _run_config(args)
    print(f"Tracing {config.name} ({args.requests} requests, "
          f"seed {args.seed})...", file=sys.stderr)
    if args.loss or args.churn:
        result = run_degraded(config, tracer=tracer).result
    else:
        result = run_experiment(config, tracer=tracer)

    records = tracer.records
    counters = metrics.snapshot()["counters"]
    rows = [
        [name.removeprefix("records."), str(count)]
        for name, count in counters.items()
        if name.startswith("records.")
    ]
    print(render_table(["record kind", "count"], rows,
                       title=f"{config.name}: {len(records)} trace records"))
    print(f"rng digest: {result.rng_digest}")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            for line in canonical_lines(records):
                handle.write(line + "\n")
        print(f"wrote {args.out}", file=sys.stderr)

    if args.request is not None:
        spans = build_request_spans(records)
        span = spans.get(args.request)
        if span is None:
            print(f"no trace records for request {args.request}")
            return 1
        print()
        for line in render_span_tree(span):
            print(line)

    if args.check:
        print()
        return _trace_verdict(records)
    return 0


def _trace_verdict(records) -> int:
    """Print the trace invariant checker's verdict; returns the exit code."""
    from repro.obs.check import check_trace

    violations = check_trace(records)
    for violation in violations:
        print(f"  FAIL  {violation}")
    if not violations:
        print("  PASS  all trace invariants hold "
              f"({len(records)} records checked)")
    return 1 if violations else 0


def _run_config(args):
    """The configuration a ``trace`` or ``checkpoint`` invocation describes."""
    if args.loss or args.churn:
        return degradation_config(
            experiment4_base_config(
                master_seed=args.seed, request_count=args.requests
            ),
            loss=args.loss,
            churn_rate=args.churn,
            resilient=True,
        )
    return table2_experiments(
        master_seed=args.seed, request_count=args.requests
    )[args.experiment - 1]


def _cmd_checkpoint(args) -> int:
    config = _run_config(args)
    print(f"Running {config.name} for {args.at_step} events "
          f"(seed {args.seed})...", file=sys.stderr)
    digest = checkpoint_run(
        config,
        mode="degraded" if args.loss or args.churn else "strict",
        at_step=args.at_step,
        path=args.out,
    )
    print(f"wrote {args.out}")
    print(f"sha256: {digest}")
    return 0


def _cmd_resume(args) -> int:
    from repro.checkpoint.format import read_snapshot
    from repro.experiments.soak import SoakResult

    payload = read_snapshot(args.snapshot)
    print(f"Resuming {payload.get('mode')} snapshot {args.snapshot} "
          f"(step {payload.get('steps')})...", file=sys.stderr)
    result = resume_run(
        args.snapshot,
        checkpoint_every=args.checkpoint_every,
        checkpoint_path=args.checkpoint_path,
    )
    if isinstance(result, SoakResult):
        _print_soak(result)
        return 0
    if isinstance(result, DegradedRun):
        result = result.result
    print(render_table3([result.metrics], title=f"{result.config.name} (resumed)"))
    print(f"records: {len(result.records)}, rejected: {result.rejected_count}")
    print(f"rng digest: {result.rng_digest}")
    return 0


def _print_soak(result) -> None:
    rows = [
        [str(w.index), f"{w.start:.0f}", f"{w.end:.0f}", str(w.completed),
         str(w.failed), str(w.deadline_met), f"{w.mean_response:.1f}",
         f"{w.throughput * 1000:.2f}"]
        for w in result.windows
    ]
    print(render_table(
        ["win", "start", "end", "done", "failed", "on-time", "mean resp (s)",
         "thru (/1000s)"],
        rows,
        title=f"{result.config.name}: {result.total_completed} completed, "
        f"{result.total_failed} failed over {result.horizon:.0f}s",
    ))
    print(f"steps: {result.steps}, rng digest: {result.rng_digest}")


def _cmd_soak(args) -> int:
    from repro.scheduling.scheduler import SchedulingPolicy

    config = ExperimentConfig(
        name=f"soak-{args.requests}",
        policy=SchedulingPolicy.GA,
        agents_enabled=True,
        request_count=args.requests,
        master_seed=args.seed,
    )
    print(f"Soaking {args.requests} requests (seed {args.seed}, "
          f"window {args.window:.0f}s)...", file=sys.stderr)
    result = run_soak(
        config, window_seconds=args.window, checkpoint_path=args.checkpoint
    )
    _print_soak(result)
    if args.checkpoint:
        print(f"checkpoints rewritten at {args.checkpoint}", file=sys.stderr)
    return 0


def _cmd_scenario(args) -> int:
    from repro.experiments.scenarios import (
        ScenarioSpec,
        generate_scenario,
        scenario_fingerprint,
    )
    from repro.scheduling.scheduler import SchedulingPolicy

    spec = ScenarioSpec(
        name=f"a{args.agents}-{args.arrival}",
        agent_count=args.agents,
        branching=args.branching,
        nproc=args.nproc,
        request_count=args.requests,
        rate=args.rate,
        arrival=args.arrival,
        deadline_scale=args.deadline_scale,
        master_seed=args.seed,
        chaos=args.chaos,
    )
    scenario = generate_scenario(spec)
    summary = scenario.summary()
    rows = [
        [key, f"{value:.2f}" if isinstance(value, float) else str(value)]
        for key, value in summary.items()
    ]
    print(render_table(["property", "value"], rows,
                       title=f"Scenario {spec.name} (seed {spec.master_seed})"))
    print(f"fingerprint: {scenario_fingerprint(scenario)}")
    if not (args.run or args.check):
        return 0

    config = spec.config(
        policy=(SchedulingPolicy.GA if args.policy == "ga"
                else SchedulingPolicy.FIFO),
    )
    tracer = None
    if args.check:
        from repro.obs.trace import MemorySink, Tracer

        tracer = Tracer(MemorySink())
    print(f"Running {config.name} ({len(scenario.workload)} requests, "
          f"{args.agents} agents)...", file=sys.stderr)
    if spec.chaos != "none":
        # Chaos runs lose messages and crash agents: use the degraded
        # (horizon-tolerant) stop rule rather than the strict one.
        run = run_degraded(
            config,
            scenario.topology,
            workload=list(scenario.workload),
            tracer=tracer,
        )
        result = run.result
        print(f"submitted: {run.submitted}, succeeded: {run.succeeded}, "
              f"deadline met: {run.deadline_met}, failed: {run.failed}, "
              f"unresolved: {run.unresolved}")
        print(f"crashes: {run.crashes}, fault-dropped: {run.fault_dropped}")
        if run.membership is not None:
            m = run.membership
            print(f"membership: suspects={m.suspects} confirms={m.confirms} "
                  f"orphaned={m.orphaned} adopted={m.adoptions_completed} "
                  f"promotions={m.promotions} "
                  f"mean repair={m.mean_repair_seconds:.2f}s")
    else:
        result = run_experiment(
            config,
            scenario.topology,
            workload=list(scenario.workload),
            tracer=tracer,
        )
    print(f"records: {len(result.records)}, rejected: {result.rejected_count}, "
          f"messages: {result.messages_sent}")
    print(f"rng digest: {result.rng_digest}")
    return _trace_verdict(tracer.records) if args.check else 0


def _cmd_workload(requests: int, seed: int, head: int) -> None:
    from repro.experiments.casestudy import case_study_topology

    topo = case_study_topology()
    items = generate_workload(
        topo.agent_names,
        paper_application_specs(),
        count=requests,
        master_seed=seed,
    )
    rows = [
        [f"{it.submit_time:.0f}", it.agent_name, it.application,
         f"{it.deadline - it.submit_time:.1f}"]
        for it in items[:head]
    ]
    print(render_table(["t (s)", "agent", "application", "deadline offset (s)"],
                       rows, title=f"Workload head ({head} of {len(items)})"))
    summary = workload_summary(items)
    print()
    print("per agent:", dict(sorted(summary["per_agent"].items())))
    print("per application:", dict(sorted(summary["per_application"].items())))


def _cmd_predict(application: str, platform_name: str, max_nproc: int) -> None:
    specs = paper_application_specs()
    platform = DEFAULT_CATALOGUE.get(platform_name)
    engine = EvaluationEngine()
    model = specs[application].model
    rows = [
        [k, f"{engine.evaluate_count(model, k, platform):.1f}"]
        for k in range(1, max_nproc + 1)
    ]
    print(render_table(
        ["nproc", "seconds"], rows,
        title=f"{application} on {platform.name}",
    ))
    best_k, best_t = engine.best_count(model, platform, max_nproc)
    print(f"optimal allocation: {best_k} processors ({best_t:.1f}s)")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.tournament is not None:
        return _cmd_tournament(args)
    if args.command == "table1":
        _cmd_table1()
    elif args.command == "table2":
        _cmd_table2()
    elif args.command == "table3":
        return _cmd_table3(args.requests, args.seed, args.json, args.csv, args.jobs)
    elif args.command == "sweep":
        return _cmd_sweep(args.requests, args.seeds, args.jobs)
    elif args.command == "figures":
        _cmd_figures(args.requests, args.seed, args.charts, args.jobs)
    elif args.command == "perf":
        from repro.perf import run_perf_cli

        return run_perf_cli(args.output, baseline=args.baseline, jobs=args.jobs,
                            only=args.only, update=args.update)
    elif args.command == "trace":
        return _cmd_trace(args)
    elif args.command in ("checkpoint", "resume"):
        command = _cmd_checkpoint if args.command == "checkpoint" else _cmd_resume
        try:
            return command(args)
        except (CheckpointError, ExperimentError) as exc:
            # A refused snapshot, an out-of-range step or a bad cadence is
            # an input error, not a crash.
            args.usage_error(str(exc))
    elif args.command == "soak":
        return _cmd_soak(args)
    elif args.command == "scenario":
        return _cmd_scenario(args)
    elif args.command == "workload":
        _cmd_workload(args.requests, args.seed, args.head)
    elif args.command == "predict":
        _cmd_predict(args.application, args.platform, args.max_nproc)
    return 0


if __name__ == "__main__":  # ``python -m repro.cli`` (also: ``python -m repro``)
    import sys as _sys

    _sys.exit(main(_sys.argv[1:]))
