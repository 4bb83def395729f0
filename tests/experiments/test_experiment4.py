"""Tests for Experiment 4 — the degradation study under injected faults."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments.experiment4 import (
    CONTENDERS,
    EXPERIMENT4,
    degradation_config,
    experiment4_base_config,
)
from repro.experiments.runner import run_degraded
from repro.experiments.tournament import TournamentResult, render_tournament
from repro.net.faults import ChurnSpec, FaultPlanSpec, LinkFault

REQUESTS = 30
CLEAN, LOSSY = "loss0-churn0", "loss0.2-churn0"


@pytest.fixture(scope="module")
def result(tournament_run):
    """One small degradation grid, both protocols, shared by tests."""
    return tournament_run("experiment4")[1]


class TestDegradationConfig:
    def test_resilient_point(self):
        base = experiment4_base_config(request_count=10)
        cfg = degradation_config(base, loss=0.1, churn_rate=0.25)
        assert cfg.resilience.enabled
        assert cfg.resilience.registry_ttl == 3.0 * base.pull_interval
        assert cfg.faults is not None and cfg.faults.drop_probability == 0.1
        assert cfg.churn is not None and cfg.churn.rate == 0.25
        assert "resilient" in cfg.name

    def test_ablation_point_keeps_paper_protocol(self):
        cfg = degradation_config(
            experiment4_base_config(request_count=10), loss=0.1, resilient=False
        )
        assert not cfg.resilience.enabled
        assert "no-retry" in cfg.name

    def test_no_churn_below_threshold(self):
        cfg = degradation_config(
            experiment4_base_config(request_count=10), churn_rate=0.0
        )
        assert cfg.churn is None

    def test_rich_specs_override_simple_knobs(self):
        spec = FaultPlanSpec(link_faults=(LinkFault("S1", "S2", 1.0),))
        churn = ChurnSpec(rate=0.5, downtime=120.0)
        cfg = degradation_config(
            experiment4_base_config(request_count=10),
            loss=0.3,
            fault_spec=spec,
            churn_spec=churn,
        )
        assert cfg.faults == spec
        assert cfg.churn == churn


class TestRunDegraded:
    def test_zero_faults_complete_everything(self):
        cfg = degradation_config(experiment4_base_config(request_count=12))
        run = run_degraded(cfg)
        assert run.submitted == 12
        assert run.succeeded == 12
        assert run.failed == 0 and run.unresolved == 0
        assert run.counters.retries == 0 and run.counters.gave_up == 0
        assert run.fault_dropped == 0
        assert run.crashes == 0 and run.restarts == 0
        assert run.deadline_met <= run.succeeded
        assert len(run.result.records) == 12

    def test_churn_crashes_and_restarts_agents(self):
        cfg = degradation_config(
            experiment4_base_config(request_count=12), churn_rate=0.5
        )
        run = run_degraded(cfg)
        assert run.crashes > 0
        assert run.restarts == run.crashes
        assert run.submitted == 12
        assert run.succeeded >= 1


class TestExperiment4Grid:
    def test_grid_shape_and_lookup(self, result):
        assert result.header == {"request_count": REQUESTS, "master_seed": 2003}
        assert list(result.grid) == [
            (cell, contender) for cell in (CLEAN, LOSSY) for contender in CONTENDERS
        ]
        point = result.point(LOSSY, "resilient")
        assert point.loss_rate == 0.2 and point.resilient
        assert not result.point(LOSSY, "no-retry").resilient
        with pytest.raises(ExperimentError):
            result.point("loss0.99-churn0", "resilient")

    def test_zero_fault_point_completes_fully(self, result):
        for contender in CONTENDERS:
            clean = result.point(CLEAN, contender)
            assert clean.completion_rate == 1.0
            assert clean.unresolved == 0
            assert clean.fault_dropped == 0

    def test_loss_point_exercises_the_resilience_layer(self, result):
        lossy = result.point(LOSSY, "resilient")
        assert lossy.fault_dropped > 0
        assert lossy.counters.retries > 0
        assert lossy.counters.acks_received > 0

    def test_resilient_never_below_ablation(self, result):
        for cell in result.cells:
            point = result.point(cell, "resilient")
            twin = result.point(cell, "no-retry")
            assert point.submitted == twin.submitted
            assert point.succeeded >= twin.succeeded

    def test_resilient_strictly_better_under_stress(self, result):
        # The acceptance criterion: with real message loss, retrying
        # recovers strictly more requests than fire-and-forget.
        worst, twin = result.point(LOSSY, "resilient"), result.point(LOSSY, "no-retry")
        assert worst.fault_dropped > 0
        assert worst.succeeded > twin.succeeded


class TestRenderExperiment4:
    def test_render_has_one_row_per_protocol(self, result):
        text = render_tournament(EXPERIMENT4, result)
        assert "protocol" in text
        assert text.count("resilient") == text.count("no-retry") == 2
        assert "20%" in text
        assert f"/{REQUESTS}" in text

    def test_render_ablation_alone(self, result):
        ablation = TournamentResult(
            result.header,
            {key: p for key, p in result.grid.items() if key[1] == "no-retry"},
        )
        text = render_tournament(EXPERIMENT4, ablation)
        assert text.count("no-retry") == 2
        assert "resilient" not in text

    def test_json_matches_golden(self, result, assert_golden_json):
        assert_golden_json("experiment4", result)
