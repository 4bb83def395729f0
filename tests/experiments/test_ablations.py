"""Tests for the experiment-3 configuration helper the ablation tests share."""

from __future__ import annotations

from tests.oracles import base_config

TINY = 8  # requests — these tests exercise the plumbing, not the science


class TestBaseConfig:
    def test_is_experiment_three(self):
        cfg = base_config(TINY)
        assert cfg.agents_enabled
        assert cfg.policy.value == "ga"
        assert cfg.request_count == TINY

    def test_overrides(self):
        cfg = base_config(TINY, prediction_noise=0.2, name="custom")
        assert cfg.prediction_noise == 0.2
        assert cfg.name == "custom"
