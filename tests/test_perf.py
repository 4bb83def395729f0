"""Tests for the perf-regression harness (comparison logic, not timings)."""

from __future__ import annotations

import subprocess

import pytest

from repro.perf import (
    DERIVED_RATIOS,
    GAUGE_SLICES,
    NOMINAL_SLICE_S,
    PARALLELISM_BENCHMARKS,
    BenchResult,
    Gauge,
    Regression,
    check_regression,
    merge_suite_doc,
    render_report,
    run_perf_cli,
    run_suite,
    select_benchmarks,
)


def doc(cpu_count=1, **values):
    """A minimal BENCH_PERF document; values are (value, higher_is_better)."""
    return {
        "meta": {"git_sha": "0" * 40, "requests": 120, "jobs": 4,
                 "machine": {"cpu_count": cpu_count}},
        "benchmarks": {
            name: {"value": value, "unit": "u", "higher_is_better": hib,
                   "detail": ""}
            for name, (value, hib) in values.items()
        },
        "derived": {},
    }


class TestCheckRegression:
    def test_no_change_passes(self):
        d = doc(throughput=(100.0, True), wall=(2.0, False))
        assert check_regression(d, d) == []

    def test_throughput_drop_flagged(self):
        base = doc(throughput=(100.0, True))
        current = doc(throughput=(70.0, True))  # 30% slower
        [regression] = check_regression(current, base)
        assert regression.name == "throughput"
        assert regression.change < -0.25
        assert "throughput" in regression.describe()

    def test_throughput_drop_within_threshold_passes(self):
        base = doc(throughput=(100.0, True))
        current = doc(throughput=(80.0, True))  # 20% slower: allowed
        assert check_regression(current, base) == []

    def test_wall_time_direction_inverted(self):
        base = doc(wall=(2.0, False))
        slower = doc(wall=(3.0, False))  # 50% more wall time: regression
        faster = doc(wall=(1.0, False))  # improvement, never flagged
        assert len(check_regression(slower, base)) == 1
        assert check_regression(faster, base) == []

    def test_improvements_never_flagged(self):
        base = doc(throughput=(100.0, True))
        current = doc(throughput=(500.0, True))
        assert check_regression(current, base) == []

    def test_new_and_removed_benchmarks_ignored(self):
        base = doc(old_metric=(100.0, True))
        current = doc(new_metric=(1.0, True))
        assert check_regression(current, base) == []

    def test_custom_threshold(self):
        base = doc(throughput=(100.0, True))
        current = doc(throughput=(90.0, True))
        assert check_regression(current, base, threshold=0.05) != []

    def test_zero_baseline_skipped(self):
        base = doc(throughput=(0.0, True))
        current = doc(throughput=(0.0, True))
        assert check_regression(current, base) == []


class TestCpuCountSkip:
    """Cross-machine comparisons of parallelism-bound benchmarks skip.

    A 1-CPU container's ≲1x ``sweep_speedup`` baseline must not fail the
    gate on a multi-core machine (or vice versa): the value measures the
    core count, not the code.  Code-bound benchmarks still gate.
    """

    def test_parallelism_benchmarks_are_the_sweep_pair(self):
        assert PARALLELISM_BENCHMARKS == {"sweep_speedup", "sweep_parallel_wall"}

    def test_skipped_when_core_counts_differ(self):
        base = doc(cpu_count=8, sweep_speedup=(3.5, True))
        current = doc(cpu_count=1, sweep_speedup=(0.85, True))  # 76% "worse"
        skipped = []
        assert check_regression(current, base, skipped=skipped) == []
        assert skipped == ["sweep_speedup"]

    def test_gated_when_core_counts_equal(self):
        base = doc(cpu_count=4, sweep_speedup=(3.5, True))
        current = doc(cpu_count=4, sweep_speedup=(0.85, True))
        skipped = []
        [regression] = check_regression(current, base, skipped=skipped)
        assert regression.name == "sweep_speedup"
        assert skipped == []

    def test_code_bound_benchmarks_gate_across_machines(self):
        base = doc(cpu_count=8, casestudy_wall=(2.0, False),
                   sweep_parallel_wall=(1.0, False))
        current = doc(cpu_count=1, casestudy_wall=(4.0, False),
                      sweep_parallel_wall=(5.0, False))
        skipped = []
        [regression] = check_regression(current, base, skipped=skipped)
        assert regression.name == "casestudy_wall"
        assert skipped == ["sweep_parallel_wall"]

    def test_missing_cpu_count_compares_normally(self):
        base = doc(cpu_count=None, sweep_speedup=(3.5, True))
        current = doc(cpu_count=4, sweep_speedup=(0.85, True))
        assert len(check_regression(current, base)) == 1

    def test_skipped_list_optional(self):
        base = doc(cpu_count=8, sweep_speedup=(3.5, True))
        current = doc(cpu_count=1, sweep_speedup=(0.85, True))
        assert check_regression(current, base) == []


class TestMergeSuiteDoc:
    """``perf --update`` folds a partial run into the committed document."""

    def test_fresh_overrides_and_rest_carries_over(self):
        existing = doc(ga_evolve=(500.0, True), casestudy_wall=(4.0, False))
        fresh = doc(ga_evolve=(520.0, True), ga_warmstart_convergence=(2.0, True))
        merged = merge_suite_doc(existing, fresh)
        assert merged["benchmarks"]["ga_evolve"]["value"] == 520.0
        assert merged["benchmarks"]["ga_warmstart_convergence"]["value"] == 2.0
        assert merged["benchmarks"]["casestudy_wall"]["value"] == 4.0

    def test_derived_ratios_recomputed_from_merged_set(self):
        # The partitioned-engine numerator comes from the fresh run, the
        # single-heap denominator from the existing document: the merge
        # must still produce the ratio.
        existing = doc(engine_events_per_s_single_heap=(500.0, True))
        fresh = doc(engine_events_per_s=(2000.0, True))
        merged = merge_suite_doc(existing, fresh)
        assert merged["derived"]["engine_partition_speedup"] == 4.0

    def test_meta_comes_from_fresh(self):
        existing = doc(cpu_count=8, a=(1.0, True))
        fresh = doc(cpu_count=1, b=(1.0, True))
        merged = merge_suite_doc(existing, fresh)
        assert merged["meta"]["machine"]["cpu_count"] == 1

    def test_no_existing_document_returns_fresh(self):
        fresh = doc(a=(1.0, True))
        assert merge_suite_doc(None, fresh) is fresh
        assert merge_suite_doc({}, fresh) is fresh

    def test_zero_denominator_ratio_dropped(self):
        existing = doc(engine_events_per_s_single_heap=(0.0, True))
        fresh = doc(engine_events_per_s=(2000.0, True))
        merged = merge_suite_doc(existing, fresh)
        assert "engine_partition_speedup" not in merged["derived"]


class TestRunPerfCliUpdate:
    """The ``--update`` flag rewrites the output file in place."""

    @staticmethod
    def fake_suite(monkeypatch, **values):
        fresh = doc(**values)
        monkeypatch.setattr("repro.perf.run_suite",
                            lambda **kwargs: dict(fresh))
        return fresh

    def test_update_merges_into_existing_output(self, tmp_path, monkeypatch):
        import json

        output = tmp_path / "BENCH_PERF.json"
        existing = doc(casestudy_wall=(4.0, False),
                       engine_events_per_s_single_heap=(500.0, True))
        output.write_text(json.dumps(existing))
        self.fake_suite(monkeypatch, engine_events_per_s=(2000.0, True))
        assert run_perf_cli(str(output), update=True) == 0
        written = json.loads(output.read_text())
        assert written["benchmarks"]["casestudy_wall"]["value"] == 4.0
        assert written["benchmarks"]["engine_events_per_s"]["value"] == 2000.0
        assert written["derived"]["engine_partition_speedup"] == 4.0

    def test_without_update_subset_overwrites(self, tmp_path, monkeypatch):
        import json

        output = tmp_path / "BENCH_PERF.json"
        existing = doc(casestudy_wall=(4.0, False))
        output.write_text(json.dumps(existing))
        self.fake_suite(monkeypatch, ga_evolve=(2000.0, True))
        assert run_perf_cli(str(output), update=False) == 0
        written = json.loads(output.read_text())
        assert "casestudy_wall" not in written["benchmarks"]

    def test_update_still_gates_against_prior_content(self, tmp_path, monkeypatch):
        import json

        output = tmp_path / "BENCH_PERF.json"
        existing = doc(ga_evolve=(2000.0, True))
        output.write_text(json.dumps(existing))
        self.fake_suite(monkeypatch, ga_evolve=(1000.0, True))  # 50% drop
        assert run_perf_cli(str(output), update=True) == 1

    def test_update_without_existing_file_writes_fresh(self, tmp_path, monkeypatch):
        import json

        output = tmp_path / "BENCH_PERF.json"
        self.fake_suite(monkeypatch, ga_evolve=(2000.0, True))
        assert run_perf_cli(str(output), update=True) == 0
        written = json.loads(output.read_text())
        assert written["benchmarks"]["ga_evolve"]["value"] == 2000.0


class TestRunPerfCliSubsetGuard:
    """``--only`` without ``--update`` never replaces its own baseline."""

    @staticmethod
    def forbid_suite(monkeypatch):
        def run_suite(**kwargs):
            raise AssertionError("the suite must not run")

        monkeypatch.setattr("repro.perf.run_suite", run_suite)

    def test_subset_over_own_baseline_refused(self, tmp_path, monkeypatch, capsys):
        import json

        output = tmp_path / "BENCH_PERF.json"
        output.write_text(json.dumps(doc(casestudy_wall=(4.0, False))))
        before = output.read_bytes()
        self.forbid_suite(monkeypatch)
        assert run_perf_cli(str(output), only=["ga_"]) == 2
        assert output.read_bytes() == before
        message = capsys.readouterr().err
        assert "--update" in message and "--output" in message

    def test_explicit_baseline_of_the_same_file_refused(self, tmp_path, monkeypatch):
        import json

        output = tmp_path / "BENCH_PERF.json"
        output.write_text(json.dumps(doc(casestudy_wall=(4.0, False))))
        before = output.read_bytes()
        self.forbid_suite(monkeypatch)
        assert run_perf_cli(
            str(output), baseline=str(tmp_path / "." / "BENCH_PERF.json"),
            only=["ga_"],
        ) == 2
        assert output.read_bytes() == before

    def test_subset_to_another_output_runs(self, tmp_path, monkeypatch):
        """CI's perf smoke: ``--output perf_pr.json --baseline BENCH_PERF.json``."""
        import json

        baseline = tmp_path / "BENCH_PERF.json"
        baseline.write_text(json.dumps(doc(ga_evolve=(2000.0, True))))
        output = tmp_path / "perf_pr.json"
        TestRunPerfCliUpdate.fake_suite(monkeypatch, ga_evolve=(1900.0, True))
        assert run_perf_cli(str(output), baseline=str(baseline), only=["ga_"]) == 0
        assert json.loads(output.read_text())["benchmarks"]["ga_evolve"]["value"] == 1900.0

    def test_subset_with_update_merges(self, tmp_path, monkeypatch):
        import json

        output = tmp_path / "BENCH_PERF.json"
        output.write_text(json.dumps(doc(casestudy_wall=(4.0, False))))
        TestRunPerfCliUpdate.fake_suite(monkeypatch, ga_evolve=(2000.0, True))
        assert run_perf_cli(str(output), only=["ga_"], update=True) == 0
        written = json.loads(output.read_text())
        assert set(written["benchmarks"]) == {"casestudy_wall", "ga_evolve"}


class TestSelectBenchmarks:
    """``--only SUBSTRING`` narrows the suite without running anything."""

    @staticmethod
    def names(specs):
        return [name for spec in specs for name in spec[0]]

    def test_no_filter_returns_everything(self):
        all_names = self.names(select_benchmarks(None))
        assert "ga_evolve" in all_names
        assert "casestudy_wall" in all_names
        assert self.names(select_benchmarks([])) == all_names

    def test_vectorized_and_warmstart_in_suite(self):
        """One GA loop is timed (at two shapes); the retired kernels'
        benchmarks are gone."""
        all_names = self.names(select_benchmarks(None))
        assert "ga_evolve" in all_names
        assert "ga_evolve_event" in all_names
        assert "ga_warmstart_convergence" in all_names
        retired_evolve = {
            "ga_evolve_batched", "ga_evolve_reference", "ga_evolve_vectorized",
            "ga_evolve_hit_rate", "ga_evolve_speedup",
            "ga_evolve_vectorized_speedup",
        }
        assert not retired_evolve & set(all_names)
        assert not [
            name for name in all_names
            if name.startswith(("ga_crossover_", "ga_evaluate_", "ga_dedup_"))
        ]
        assert set(DERIVED_RATIOS) == {
            "evaluate_bulk_speedup", "engine_partition_speedup",
        }

    def test_startup_import_in_suite(self):
        """The run-path import time of a fresh interpreter is a suite row,
        and ``--only startup_`` selects it with the 1000-agent set-up."""
        assert "startup_import_s" in self.names(select_benchmarks(None))
        assert self.names(select_benchmarks(["startup_"])) == [
            "startup_import_s", "startup_grid_1000_s",
        ]

    def test_substring_selects_matching_group(self):
        selected = self.names(select_benchmarks(["engine_events"]))
        assert "engine_events_per_s" in selected
        assert "engine_events_per_s_single_heap" in selected  # same group
        assert "casestudy_wall" not in selected

    def test_multiple_substrings_union(self):
        selected = self.names(select_benchmarks(["casestudy", "warmstart"]))
        assert "casestudy_wall" in selected
        assert "ga_warmstart_convergence" in selected
        assert "sweep_speedup" not in selected

    def test_unmatched_filter_raises_before_running(self):
        with pytest.raises(ValueError, match="no benchmark"):
            run_suite(only=["no-such-benchmark"])


class TestRendering:
    def test_report_lists_every_benchmark(self):
        d = doc(throughput=(123.456, True), wall=(2.5, False))
        d["derived"] = {"speedup": 1.5}
        report = render_report(d)
        assert "throughput" in report
        assert "wall" in report
        assert "speedup" in report

    def test_bench_result_round_trip(self):
        result = BenchResult("x", 1.5, "s", False, "detail")
        as_json = result.to_json()
        assert as_json["value"] == 1.5
        assert as_json["higher_is_better"] is False

    def test_regression_describe_signs(self):
        regression = Regression("m", baseline=100.0, current=50.0, change=-0.5)
        assert "-50.0%" in regression.describe()


class TestStartupGauge:
    """The ``startup_`` rows are quoted at nominal machine speed."""

    @staticmethod
    def gauge(slice_s: float) -> Gauge:
        gauge = Gauge()
        gauge.times = [slice_s] * GAUGE_SLICES
        return gauge

    def test_nominal_slices_leave_seconds_unchanged(self):
        assert self.gauge(NOMINAL_SLICE_S).scale(0.25) == pytest.approx(0.25)

    def test_slow_spell_is_divided_out(self):
        """Identical code read 0.035 s in a quiet spell and 0.077 s in a
        slow one; with slices 2.2x slower the scaled rows agree."""
        quiet = self.gauge(NOMINAL_SLICE_S).scale(0.035)
        slow = self.gauge(2.2 * NOMINAL_SLICE_S).scale(0.077)
        assert slow == pytest.approx(quiet)

    def test_mean_slice_is_the_speed_estimate(self):
        gauge = Gauge()
        gauge.times = [0.5 * NOMINAL_SLICE_S, 1.5 * NOMINAL_SLICE_S]
        assert gauge.scale(0.4) == pytest.approx(0.4)

    def test_probe_imports_the_gauge_after_the_timer(self):
        """The gauge's module must not pre-load anything the timed
        imports would otherwise pay for."""
        from repro.perf import _STARTUP_PROBE

        assert _STARTUP_PROBE.index("seconds = time.perf_counter() - t0") < (
            _STARTUP_PROBE.index("from repro.perf import")
        )

    def test_import_row_is_the_median_of_scaled_seconds(self, monkeypatch):
        import repro.perf as perf

        lines = iter(["0.10 0.20\n", "0.12 0.30\n", "0.11 0.25\n"])

        def child(args, **kwargs):
            return subprocess.CompletedProcess(args, 0, stdout=next(lines))

        monkeypatch.setattr(perf.subprocess, "run", child)
        result = perf.bench_startup_import(interpreters=3)
        assert result.value == pytest.approx(0.11)
        assert "0.250 s wall" in result.detail


class TestGaGauge:
    """The ``ga_`` throughputs are quoted at nominal machine speed too."""

    def test_each_run_is_scaled_by_its_own_slices(self, monkeypatch):
        """Three runs of 12, 10 and 11 ms of work at nominal speed, the
        middle one in a spell three times as slow: the wall median reads
        12 ms, the scaled median the work's 11 ms."""
        import types

        import repro.perf as perf

        work = [0.012, 0.010, 0.011]
        spells = [1.0, 3.0, 1.0]
        clock = [0.0]
        slices, runs = [], []

        def fake_slice(gauge):
            run = len(slices) // (GAUGE_SLICES // 2)
            slices.append(run)
            gauge.times.append(spells[run] * NOMINAL_SLICE_S)

        def sample():
            run = len(runs)
            runs.append(run)
            clock[0] += work[run] * spells[run]

        monkeypatch.setattr(
            perf, "time", types.SimpleNamespace(perf_counter=lambda: clock[0])
        )
        monkeypatch.setattr(perf.Gauge, "slice", fake_slice)
        nominal, wall = perf._median_at_nominal(sample, 3)
        assert nominal == pytest.approx(0.011)
        assert wall == pytest.approx(0.012)
        assert slices == [0] * 5 + [1] * 5 + [2] * 5

    def test_rows_divide_by_nominal_seconds(self, monkeypatch):
        import repro.perf as perf

        monkeypatch.setattr(
            perf, "_median_at_nominal", lambda sample, repeats: (0.5, 1.0)
        )
        evolve = perf.bench_ga_evolve(generations=25)
        assert evolve.value == pytest.approx(50.0)
        assert "(25 generations/s wall)" in evolve.detail
        event = perf.bench_ga_evolve_event(calls=30, generations=10)
        assert event.value == pytest.approx(600.0)
        assert "(300 generations/s wall)" in event.detail


class TestEngineGauge:
    """The ``engine_`` and ``scale_`` rows are quoted at nominal speed."""

    def test_prepare_runs_untimed_before_the_slices(self, monkeypatch):
        import types

        import repro.perf as perf

        clock = [0.0]
        order = []

        def fake_slice(gauge):
            order.append("slice")
            gauge.times.append(NOMINAL_SLICE_S)

        def prepare():
            order.append("prepare")
            clock[0] += 5.0  # untimed
            return 0.25

        def sample(seconds):
            order.append("sample")
            clock[0] += seconds

        monkeypatch.setattr(
            perf, "time", types.SimpleNamespace(perf_counter=lambda: clock[0])
        )
        monkeypatch.setattr(perf.Gauge, "slice", fake_slice)
        nominal, wall = perf._median_at_nominal(sample, 2, prepare=prepare)
        assert nominal == pytest.approx(0.25)
        assert wall == pytest.approx(0.25)
        run = ["prepare"] + ["slice"] * (GAUGE_SLICES // 2) + ["sample"]
        assert order == run * 2

    def test_rows_divide_by_nominal_seconds(self, monkeypatch):
        import repro.perf as perf

        def fake(sample, repeats, *, prepare=None):
            sample() if prepare is None else sample(prepare())
            return 0.5, 1.0

        monkeypatch.setattr(perf, "_median_at_nominal", fake)
        heap, single = perf.bench_engine_events(
            n_agents=2, arrivals_per_agent=3, burst=2, events=10, warmup=2
        )
        assert heap.value == pytest.approx(20.0)
        assert single.value == pytest.approx(20.0)
        assert "(10 events/s wall)" in heap.detail
        alloc = perf.bench_event_alloc(count=10)
        assert alloc.value == pytest.approx(40.0)
        assert "(20 objects/s wall)" in alloc.detail
