"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import pytest

from repro.checkpoint.format import FORMAT_VERSION
from repro.cli import build_parser, main
from tests.oracles import to_json


@pytest.fixture(scope="module")
def current_snapshot(tmp_path_factory) -> str:
    """The text of one snapshot this build writes."""
    snap = tmp_path_factory.mktemp("current") / "snap.json"
    assert main([
        "checkpoint", "--requests", "12", "--at-step", "50", "--out", str(snap),
    ]) == 0
    return snap.read_text(encoding="utf-8")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_application_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["predict", "doom"])

    def test_defaults(self):
        args = build_parser().parse_args(["table3"])
        assert args.requests == 600
        assert args.seed == 2003


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "sweep3d" in out and "Table 1" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "FIFO Algorithm" in out
        assert "experiment-3" in out

    def test_predict(self, capsys):
        assert main(["predict", "fft", "--max-nproc", "4"]) == 0
        out = capsys.readouterr().out
        assert "fft on SGIOrigin2000" in out
        assert "optimal allocation" in out

    def test_predict_platform(self, capsys):
        assert main(["predict", "closure", "--platform", "SunSPARCstation2"]) == 0
        assert "SunSPARCstation2" in capsys.readouterr().out

    def test_workload(self, capsys):
        assert main(["workload", "--requests", "15", "--head", "5"]) == 0
        out = capsys.readouterr().out
        assert "per agent" in out
        assert "per application" in out

    def test_table3_small(self, capsys):
        # Small workloads may fail the paper trends (exit 1) — either exit
        # code is acceptable; the table itself must print.
        code = main(["table3", "--requests", "15"])
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "Table 3" in out
        assert "epsilon-improves" in out

    def test_table3_exports(self, capsys, tmp_path):
        json_path = tmp_path / "out.json"
        csv_path = tmp_path / "out.csv"
        code = main([
            "table3", "--requests", "12",
            "--json", str(json_path), "--csv", str(csv_path),
        ])
        assert code in (0, 1)
        import json as json_mod

        parsed = json_mod.loads(json_path.read_text())
        assert len(parsed) == 3
        assert csv_path.read_text().startswith("resource,")

    def test_sweep_small(self, capsys):
        code = main(["sweep", "--requests", "12", "--seeds", "1", "2"])
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "Trend support" in out
        assert "mean ± std" in out

    def test_figures_small_with_charts(self, capsys):
        assert main(["figures", "--requests", "15", "--charts"]) == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out and "Figure 10" in out
        assert "legend:" in out

    def test_experiment4_no_retry(self, capsys):
        assert main([
            "experiment4", "--requests", "12",
            "--loss", "0.0", "--churn", "0.0", "--no-retry",
        ]) == 0
        out = capsys.readouterr().out
        assert "Experiment 4" in out
        assert "no-retry" in out and "resilient" not in out

    def test_trace_clean_run_with_check(self, capsys):
        assert main(["trace", "--requests", "12", "--check"]) == 0
        out = capsys.readouterr().out
        assert "trace records" in out
        assert "portal.submit" in out and "sched.dispatch" in out
        assert "rng digest: " in out
        assert "PASS  all trace invariants hold" in out

    def test_trace_writes_canonical_jsonl(self, capsys, tmp_path):
        import json as json_mod

        out_path = tmp_path / "trace.jsonl"
        assert main([
            "trace", "--requests", "12", "--experiment", "1",
            "--out", str(out_path),
        ]) == 0
        lines = out_path.read_text().splitlines()
        assert lines
        first = json_mod.loads(lines[0])
        assert "kind" in first and "t" in first
        # Canonical stream excludes the bulk kinds.
        kinds = {json_mod.loads(line)["kind"] for line in lines}
        assert not kinds & {"sim.event", "net.send", "net.deliver"}

    def test_trace_span_tree(self, capsys):
        assert main(["trace", "--requests", "12", "--request", "0"]) == 0
        out = capsys.readouterr().out
        assert "request 0" in out
        assert "result t=" in out

    def test_trace_unknown_request_fails(self, capsys):
        assert main(["trace", "--requests", "12", "--request", "999"]) == 1
        assert "no trace records for request 999" in capsys.readouterr().out

    def test_trace_degraded_run(self, capsys):
        assert main([
            "trace", "--requests", "12", "--loss", "0.2", "--churn", "0.25",
            "--check",
        ]) == 0
        out = capsys.readouterr().out
        assert "net.drop" in out
        assert "PASS" in out

    def test_experiment4_fault_plan_file(self, capsys, tmp_path):
        from repro.net.faults import FaultPlanSpec, LinkFault

        plan_path = tmp_path / "plan.json"
        spec = FaultPlanSpec(link_faults=(LinkFault("S2", "S1", 1.0),))
        plan_path.write_text(to_json(spec))
        assert main([
            "experiment4", "--requests", "12", "--churn", "0.0",
            "--fault-plan", str(plan_path), "--no-retry",
        ]) == 0
        assert "no-retry" in capsys.readouterr().out

    def test_checkpoint_then_resume(self, capsys, tmp_path):
        snap = tmp_path / "snap.json"
        assert main([
            "checkpoint", "--requests", "12", "--at-step", "50",
            "--out", str(snap),
        ]) == 0
        out = capsys.readouterr().out
        assert "sha256: " in out
        assert snap.exists()
        assert main(["resume", str(snap)]) == 0
        out = capsys.readouterr().out
        assert "resumed" in out and "rng digest: " in out

    def test_resume_refused_snapshot_exits_2(self, capsys, tmp_path):
        from repro.checkpoint.format import read_snapshot, write_snapshot

        snap = tmp_path / "snap.json"
        assert main([
            "checkpoint", "--requests", "12", "--at-step", "50",
            "--out", str(snap),
        ]) == 0
        payload = read_snapshot(str(snap))
        payload["config"]["monitor_poll_interval"] = 300.0
        write_snapshot(str(snap), payload)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["resume", str(snap)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "repro resume: error: " in err
        assert "monitor_poll_interval" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("version", range(1, FORMAT_VERSION))
    def test_resume_retired_version_snapshot_exits_2(
        self, version, current_snapshot, capsys, tmp_path
    ):
        """A snapshot stamped with any earlier format version is refused."""
        snap = tmp_path / "snap.json"
        snap.write_text(
            current_snapshot.replace(
                f'"version":{FORMAT_VERSION}', f'"version":{version}', 1
            ),
            encoding="utf-8",
        )
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["resume", str(snap)])
        assert exc.value.code == 2
        assert f"format version {version}" in capsys.readouterr().err

    def test_checkpoint_then_resume_degraded(self, capsys, tmp_path):
        snap = tmp_path / "snap.json"
        assert main([
            "checkpoint", "--requests", "12", "--loss", "0.1",
            "--churn", "0.25", "--at-step", "110", "--out", str(snap),
        ]) == 0
        capsys.readouterr()
        assert main(["resume", str(snap)]) == 0
        assert "rng digest: " in capsys.readouterr().out

    @pytest.mark.parametrize("at_step", ["3000", "0"], ids=["past-the-run", "zero"])
    def test_checkpoint_unreachable_step_exits_2(self, at_step, capsys, tmp_path):
        """The degraded rule stops this run after 312 events."""
        snap = tmp_path / "snap.json"
        with pytest.raises(SystemExit) as exc:
            main([
                "checkpoint", "--requests", "20", "--loss", "0.2",
                "--churn", "0.25", "--at-step", at_step, "--out", str(snap),
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "repro checkpoint: error: " in err and "at_step" in err
        assert "Traceback" not in err
        assert not snap.exists()

    @pytest.mark.parametrize(
        "cadence",
        [["--checkpoint-every", "0", "--checkpoint-path", "again.json"],
         ["--checkpoint-every", "50"]],
        ids=["zero", "no-path"],
    )
    def test_resume_bad_cadence_exits_2(self, cadence, capsys, tmp_path):
        snap = tmp_path / "snap.json"
        assert main([
            "checkpoint", "--requests", "12", "--at-step", "50",
            "--out", str(snap),
        ]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["resume", str(snap), *cadence])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "repro resume: error: checkpoint_every" in err
        assert "Traceback" not in err

    def test_experiment6_reduced_grid(self, capsys, tmp_path):
        json_path = tmp_path / "exp6.json"
        assert main([
            "experiment6", "--requests", "12", "--bursty-agents", "24",
            "--cells", "clean", "loss", "--policies", "eq10", "auction",
            "--json", str(json_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "Experiment 6" in out
        assert "auction" in out and "eq10" in out
        import json as json_mod

        parsed = json_mod.loads(json_path.read_text())
        assert len(parsed["points"]) == 4

    def test_experiment6_check(self, capsys):
        assert main([
            "experiment6", "--requests", "24", "--bursty-agents", "24",
            "--check",
        ]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out

    def test_soak_with_checkpoint_then_resume(self, capsys, tmp_path):
        snap = tmp_path / "soak.json"
        assert main([
            "soak", "--requests", "40", "--window", "30",
            "--checkpoint", str(snap),
        ]) == 0
        first = capsys.readouterr().out
        assert "completed" in first and "win" in first
        assert main(["resume", str(snap)]) == 0
        second = capsys.readouterr().out
        # The resumed soak reports the same windows and final digest.
        assert first.splitlines()[-1] == second.splitlines()[-1]

    def test_soak_resume_honours_checkpoint_flags(self, capsys, tmp_path):
        snap, again = tmp_path / "soak.json", tmp_path / "again.json"
        assert main([
            "soak", "--requests", "40", "--window", "30",
            "--checkpoint", str(snap),
        ]) == 0
        first = capsys.readouterr().out
        # The soak's last snapshot falls a few events before its end.
        assert main([
            "resume", str(snap), "--checkpoint-every", "1",
            "--checkpoint-path", str(again),
        ]) == 0
        assert again.exists()
        assert capsys.readouterr().out.splitlines()[-1] == first.splitlines()[-1]


#: Every tournament subcommand at a size that keeps one run to a few
#: seconds and still passes --check: (argv, --json header keys, points).
TOURNAMENT_RUNS = {
    "experiment4": (
        ["--requests", "12", "--loss", "0.0", "0.2", "--churn", "0.0"],
        {"request_count", "master_seed"},
        4,
    ),
    "experiment5": (
        ["--requests", "40", "--churn", "0.5", "--stragglers", "0"],
        {"request_count", "master_seed"},
        2,
    ),
    "experiment6": (
        ["--requests", "12", "--bursty-agents", "24", "--cells", "clean",
         "loss", "--policies", "eq10", "auction"],
        {"request_count", "master_seed", "bursty_agents"},
        4,
    ),
    "experiment7": (
        ["--workflows", "3", "--cells", "fork-join-uniform"],
        {"workflow_count", "master_seed"},
        2,
    ),
}


@pytest.mark.parametrize("command", sorted(TOURNAMENT_RUNS))
def test_tournament_check_and_json(command, capsys, tmp_path):
    import json as json_mod

    argv, header, points = TOURNAMENT_RUNS[command]
    json_path = tmp_path / f"{command}.json"
    assert main([command, *argv, "--check", "--json", str(json_path)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    doc = json_mod.loads(json_path.read_text())
    assert set(doc) == header | {"points"}
    assert len(doc["points"]) == points


@pytest.mark.parametrize(
    "argv",
    [
        ["experiment7", "--cells", "fork-join-hourly"],
        ["experiment7", "--workflows", "0"],
        ["experiment4", "--requests", "0"],
        ["experiment5", "--stragglers", "99"],
    ],
    ids=["unknown-cell", "no-workflows", "no-requests", "too-many-stragglers"],
)
def test_bad_tournament_arguments_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"repro {argv[0]}: error: " in err
    assert "Traceback" not in err
