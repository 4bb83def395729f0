"""The benchmark drives the program exactly as the library runner does."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.experiments import run_experiment  # noqa: E402


def drive_all(workload, seed, scale, recorder=None):
    phases = workloads.Phases()
    grids, headline = workloads.prepare(workload, seed, phases, scale=scale)
    for grid in grids:
        if recorder is not None:
            recorder.begin_window()
        workloads.drive(grid)
        if recorder is not None:
            recorder.end_window()
    return grids, headline


def test_drive_loop_matches_run_experiment():
    grids, _ = drive_all("casestudy", 2003, scale=0.25)
    for grid in grids:
        system = grid.system
        outputs = workloads.grid_outputs(grid)
        reference = run_experiment(system.config, system.topology)
        assert reference.rng_digest == system.rngs.state_digest()
        assert repr(reference.metrics) == repr(outputs["metrics"])
        assert outputs["requests"] == outputs["results"] == outputs["successes"]


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_outputs_equal_untraced(workload):
    plain, _ = drive_all(workload, 7, scale=0.1)
    recorder = layers.SpanRecorder()
    with recorder:
        traced, _ = drive_all(workload, 7, scale=0.1, recorder=recorder)
    digests = [workloads.grid_outputs(g)["digest"] for g in plain]
    assert digests == [workloads.grid_outputs(g)["digest"] for g in traced]
    summary = recorder.summary()
    total = sum(summary["layer_self_s"].values()) + summary["unattributed_s"]
    assert total == pytest.approx(summary["window_s"])
    assert not workloads.correctness_failures([workloads.grid_outputs(g) for g in traced])


def test_ticks_leave_outputs_unchanged():
    plain, _ = drive_all("grid1000", 7, scale=0.1)
    ticks = []
    grids, _ = workloads.prepare("grid1000", 7, workloads.Phases(), scale=0.1)
    for grid in grids:
        workloads.drive(grid, tick=lambda: ticks.append(None))
    assert [workloads.grid_outputs(g)["digest"] for g in grids] == [
        workloads.grid_outputs(g)["digest"] for g in plain
    ]
    events = sum(g.system.sim.fired_count for g in grids)
    assert len(ticks) == events // workloads.TICK_EVENTS


def test_sub_seeds_are_distinct_and_start_at_the_seed():
    seeds = [run.sub_seed(11, k) for k in range(8)]
    assert seeds[0] == 11 and len(set(seeds)) == 8
    assert seeds == [run.sub_seed(11, k) for k in range(8)]


def test_benchmark_file_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == run.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        layers.PER_LAYER
    )
