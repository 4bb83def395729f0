"""Tests for experiment configurations (Table 2)."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments.config import ExperimentConfig, table2_experiments
from repro.scheduling.scheduler import SchedulingPolicy
from tests.oracles import scaled


class TestTable2:
    def test_three_experiments(self):
        exps = table2_experiments()
        assert len(exps) == 3

    def test_design_matrix(self):
        e1, e2, e3 = table2_experiments()
        assert e1.policy is SchedulingPolicy.FIFO and not e1.agents_enabled
        assert e2.policy is SchedulingPolicy.GA and not e2.agents_enabled
        assert e3.policy is SchedulingPolicy.GA and e3.agents_enabled

    def test_paper_workload_defaults(self):
        for cfg in table2_experiments():
            assert cfg.request_count == 600
            assert cfg.request_interval == 1.0
            assert cfg.pull_interval == 10.0
            assert cfg.request_phase_seconds == 600.0

    def test_shared_seed(self):
        e1, e2, e3 = table2_experiments(master_seed=77)
        assert e1.master_seed == e2.master_seed == e3.master_seed == 77


class TestExperimentConfig:
    def test_agents_disabled_forces_local_only(self):
        cfg = ExperimentConfig(
            name="x", policy=SchedulingPolicy.GA, agents_enabled=False
        )
        assert cfg.discovery.local_only

    def test_agents_enabled_keeps_discovery(self):
        cfg = ExperimentConfig(
            name="x", policy=SchedulingPolicy.GA, agents_enabled=True
        )
        assert not cfg.discovery.local_only

    def test_scaled(self):
        cfg = scaled(table2_experiments()[0], 60)
        assert cfg.request_count == 60
        assert cfg.policy is SchedulingPolicy.FIFO

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"request_count": 0},
            {"request_interval": 0.0},
            {"pull_interval": 0.0},
            {"generations_per_event": -1},
            {"prediction_noise": -0.5},
            {"advertisement": "smoke-signals"},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        base = dict(name="x", policy=SchedulingPolicy.GA, agents_enabled=True)
        base.update(kwargs)
        with pytest.raises(ExperimentError):
            ExperimentConfig(**base)
