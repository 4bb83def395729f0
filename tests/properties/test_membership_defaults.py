"""Property: the membership layer's defaults are byte-identical to the seed.

Mirrors ``test_fault_defaults.py`` one layer up: constructing a
*disabled* :class:`MembershipConfig` — even with wildly non-default
detection knobs — must not change a single completion record, metric,
message count, or RNG stream position, for any seed, in the strict loop
*and* in an Experiment-4 faulty cell (loss + churn + resilience).  The
detector, healer, heartbeats, quarantine checks, and the held-results
path are all gated on ``enabled``; the ``backoff-jitter`` RNG stream must
not even be *created* when ``backoff_jitter == 0`` (stream creation alone
perturbs the registry digest).

The flip side is pinned too: turning the jitter knob on creates and
draws the stream (digest moves), and fully-enabled chaos cells remain
deterministic (same seed → same canonical trace).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import asdict

import pytest

import repro.net.message as message_module
from repro.agents.membership import MembershipConfig
from repro.agents.resilience import ResilienceConfig
from repro.experiments.config import table2_experiments
from repro.experiments.experiment4 import (
    degradation_config,
    experiment4_base_config,
)
from repro.experiments.experiment5 import experiment5_config
from repro.experiments.casestudy import case_study_topology
from repro.experiments.runner import run_degraded, run_experiment
from repro.obs import MemorySink, Tracer, canonical_lines

SEEDS = (2003, 7, 41, 97, 1234)
REQUESTS = 12

#: Disabled, but with every other knob moved off its default: if any of
#: these values leaks into a run, the layer's gating is incomplete.
DISABLED = MembershipConfig(
    enabled=False,
    heartbeat_interval=7.0,
    suspect_after=9.0,
    confirm_after=33.0,
    heal=False,
    heal_retry=1.0,
    max_heal_attempts=2,
)


def metrics_json(metrics) -> str:
    return json.dumps(asdict(metrics), sort_keys=True)


def assert_same_run(baseline, variant) -> None:
    assert baseline.records == variant.records
    assert metrics_json(baseline.metrics) == metrics_json(variant.metrics)
    assert baseline.messages_sent == variant.messages_sent
    assert baseline.messages_delivered == variant.messages_delivered
    assert baseline.rng_digest == variant.rng_digest


class TestDisabledMembershipIsByteIdentical:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_strict_loop(self, seed):
        config = table2_experiments(master_seed=seed, request_count=REQUESTS)[2]
        variant_cfg = dataclasses.replace(config, membership=DISABLED)
        assert_same_run(run_experiment(config), run_experiment(variant_cfg))

    def test_faulty_cell(self):
        """The Experiment-4 acceptance cell: 20% loss, 25% churn."""
        config = degradation_config(
            experiment4_base_config(request_count=20), loss=0.2, churn_rate=0.25
        )
        variant_cfg = dataclasses.replace(config, membership=DISABLED)

        message_module.set_message_counter(0)
        tracer_a = Tracer(MemorySink())
        baseline = run_degraded(config, tracer=tracer_a)
        message_module.set_message_counter(0)
        tracer_b = Tracer(MemorySink())
        variant = run_degraded(variant_cfg, tracer=tracer_b)

        assert_same_run(baseline.result, variant.result)
        assert baseline.counters == variant.counters
        assert baseline.crashes == variant.crashes
        assert canonical_lines(tracer_a.records) == canonical_lines(
            tracer_b.records
        )
        # Membership stayed fully dormant: no summary was even collected.
        assert baseline.membership is None and variant.membership is None


class TestBackoffJitterStream:
    def faulty(self, jitter: float):
        config = degradation_config(
            experiment4_base_config(request_count=20), loss=0.2, churn_rate=0.25
        )
        config = dataclasses.replace(
            config,
            resilience=dataclasses.replace(
                config.resilience, backoff_jitter=jitter
            ),
        )
        message_module.set_message_counter(0)
        return run_degraded(config)

    def test_zero_jitter_is_byte_identical(self):
        """jitter=0 must not even create the backoff-jitter RNG stream."""
        baseline = self.faulty(0.0)
        explicit = self.faulty(0.0)
        assert_same_run(baseline.result, explicit.result)
        assert baseline.counters == explicit.counters

    def test_jitter_moves_only_when_on(self):
        baseline = self.faulty(0.0)
        jittered = self.faulty(0.5)
        # The stream now exists (and retry timing shifted): digests split.
        assert baseline.result.rng_digest != jittered.result.rng_digest
        # But a jittered run is still deterministic in itself.
        again = self.faulty(0.5)
        assert jittered.result.rng_digest == again.result.rng_digest
        assert jittered.result.records == again.result.records


class TestChaosCellsAreDeterministic:
    def test_same_seed_same_canonical_trace(self):
        """A healing churn+straggler cell replays byte-identically."""
        topology = case_study_topology()
        config = experiment5_config(
            experiment4_base_config(request_count=20),
            topology,
            churn_rate=0.5,
            straggler_count=2,
            healing=True,
        )

        def run_once():
            message_module.set_message_counter(0)
            tracer = Tracer(MemorySink())
            run = run_degraded(config, topology, tracer=tracer)
            return run, canonical_lines(tracer.records)

        first, first_lines = run_once()
        second, second_lines = run_once()
        assert first_lines == second_lines
        assert first.result.rng_digest == second.result.rng_digest
        assert first.membership == second.membership
        # The cell actually exercised the layer under test.
        assert first.crashes > 0
        assert first.membership is not None
        assert first.membership.confirms > 0
