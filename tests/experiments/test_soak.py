"""Tests for the long-horizon soak driver and its windowed metrics."""

from __future__ import annotations

import os

import pytest

from repro.checkpoint.format import read_snapshot, write_snapshot
from repro.errors import CheckpointError, ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    MAX_EVENTS,
    checkpoint_run,
    resume_run,
    run_soak,
)
from repro.experiments.soak import SoakWindow
from repro.scheduling.scheduler import SchedulingPolicy


def soak_config(requests: int = 60, seed: int = 2003) -> ExperimentConfig:
    return ExperimentConfig(
        name=f"soak-{requests}",
        policy=SchedulingPolicy.GA,
        agents_enabled=True,
        request_count=requests,
        master_seed=seed,
    )


class TestRunSoak:
    def test_windows_partition_the_stream(self):
        result = run_soak(soak_config(), window_seconds=30.0)
        assert result.total_completed + result.total_failed == 60
        assert sum(w.completed for w in result.windows) == result.total_completed
        assert sum(w.failed for w in result.windows) == result.total_failed
        assert result.steps <= MAX_EVENTS
        # Windows tile simulated time contiguously, oldest first.
        for earlier, later in zip(result.windows, result.windows[1:]):
            assert later.start == earlier.end
            assert later.index == earlier.index + 1

    def test_window_stats_are_consistent(self):
        result = run_soak(soak_config(), window_seconds=30.0)
        for window in result.windows:
            assert isinstance(window, SoakWindow)
            assert 0 <= window.deadline_met <= window.completed
            assert window.throughput == pytest.approx(window.completed / 30.0)
            if window.completed == 0:
                assert window.mean_response == 0.0
            else:
                assert window.mean_response > 0.0

    def test_invalid_window_rejected(self):
        with pytest.raises(ExperimentError, match="window_seconds"):
            run_soak(soak_config(), window_seconds=0.0)

    def test_checkpoint_rewrites_one_file(self, tmp_path):
        path = str(tmp_path / "soak.json")
        plain = run_soak(soak_config(), window_seconds=30.0)
        checked = run_soak(
            soak_config(), window_seconds=30.0, checkpoint_path=path
        )
        # Checkpointing never perturbs the run, and leaves one snapshot.
        assert checked.windows == plain.windows
        assert checked.rng_digest == plain.rng_digest
        assert os.path.exists(path)
        assert not os.path.exists(path + ".tmp")


class TestResumeSoak:
    def test_resume_windows_are_identical(self, tmp_path):
        path = str(tmp_path / "soak.json")
        full = run_soak(soak_config(), window_seconds=30.0)

        checkpoint_run(
            soak_config(),
            mode="soak",
            window_seconds=30.0,
            at_step=full.steps // 2,
            path=path,
        )
        resumed = resume_run(path)
        assert resumed.windows == full.windows
        assert resumed.rng_digest == full.rng_digest
        assert resumed.total_completed == full.total_completed
        assert resumed.total_failed == full.total_failed
        assert resumed.steps == full.steps

    def test_resume_from_boundary_checkpoint(self, tmp_path):
        # The snapshot rewritten at a window boundary mid-run must itself
        # resume to the same tail.
        path = str(tmp_path / "rolling.json")
        full = run_soak(soak_config(), window_seconds=30.0, checkpoint_path=path)
        resumed = resume_run(path)
        assert resumed.windows == full.windows
        assert resumed.rng_digest == full.rng_digest

    def test_resume_rejects_other_kinds(self, tmp_path):
        """A snapshot whose mode names no stop rule is refused."""
        path = str(tmp_path / "exp.json")
        checkpoint_run(soak_config(12), mode="soak", at_step=200, path=path)
        payload = read_snapshot(path)
        payload["mode"] = "windowed"
        write_snapshot(path, payload)
        with pytest.raises(CheckpointError, match="mode 'windowed'"):
            resume_run(path)


@pytest.mark.skipif(
    not os.environ.get("REPRO_SOAK"),
    reason="multi-minute soak; set REPRO_SOAK=1 to run",
)
class TestLongSoak:
    def test_six_thousand_requests_under_event_ceiling(self, tmp_path):
        result = run_soak(
            soak_config(requests=6000),
            window_seconds=2000.0,
            checkpoint_path=str(tmp_path / "soak.json"),
        )
        assert result.total_completed + result.total_failed == 6000
        assert result.steps <= MAX_EVENTS
        assert len(result.windows) >= 2
