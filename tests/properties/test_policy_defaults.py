"""Property: selecting ``eq10`` explicitly is byte-identical to the seed.

The global-policy layer factored the paper's eq.-(10) dispatch rule out
of :class:`~repro.agents.agent.Agent` into
:class:`~repro.agents.policy.Eq10Policy`; these tests pin the refactor.
A config that *explicitly* selects ``eq10`` — even with wildly
non-default auction/reservation timeouts, which eq10 must never read —
must not change a single completion record, metric, message count, or
RNG stream position relative to the default config, for any seed, in
the strict loop, in an Experiment-4 faulty cell, and on a 500-agent
generated scenario.

The flip side is pinned too: the non-eq10 policies are deterministic in
themselves (same seed → same canonical trace) while genuinely diverging
from the seed path.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import asdict

import pytest

import repro.net.message as message_module
from repro.agents.policy import GlobalPolicyConfig
from repro.experiments.config import table2_experiments
from repro.experiments.experiment4 import (
    degradation_config,
    experiment4_base_config,
)
from repro.experiments.runner import run_degraded, run_experiment
from repro.experiments.scenarios import ScenarioSpec, generate_scenario
from repro.obs.records import canonical_lines
from repro.obs.trace import MemorySink, Tracer

SEEDS = (2003, 7, 41, 97, 1234)
REQUESTS = 12

#: Explicit eq10 with every other knob moved off its default: if either
#: timeout leaks into an eq10 run, the policy's gating is incomplete.
EXPLICIT_EQ10 = GlobalPolicyConfig(
    kind="eq10", bid_timeout=17.0, reservation_timeout=23.0
)


def metrics_json(metrics) -> str:
    return json.dumps(asdict(metrics), sort_keys=True)


def assert_same_run(baseline, variant) -> None:
    assert baseline.records == variant.records
    assert metrics_json(baseline.metrics) == metrics_json(variant.metrics)
    assert baseline.messages_sent == variant.messages_sent
    assert baseline.messages_delivered == variant.messages_delivered
    assert baseline.rng_digest == variant.rng_digest


class TestExplicitEq10IsByteIdentical:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_strict_loop(self, seed):
        config = table2_experiments(master_seed=seed, request_count=REQUESTS)[2]
        variant_cfg = dataclasses.replace(config, global_policy=EXPLICIT_EQ10)
        assert_same_run(run_experiment(config), run_experiment(variant_cfg))

    def test_faulty_cell(self):
        """The Experiment-4 acceptance cell: 20% loss, 25% churn."""
        config = degradation_config(
            experiment4_base_config(request_count=20), loss=0.2, churn_rate=0.25
        )
        variant_cfg = dataclasses.replace(config, global_policy=EXPLICIT_EQ10)

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

    def test_500_agent_scenario(self):
        """The scale tier: a generated 500-agent grid replays identically."""
        scenario = generate_scenario(
            ScenarioSpec(name="policy-scale", agent_count=500, request_count=30)
        )
        config = scenario.spec.config()
        variant_cfg = dataclasses.replace(config, global_policy=EXPLICIT_EQ10)
        baseline = run_degraded(
            config, scenario.topology, workload=list(scenario.workload)
        )
        variant = run_degraded(
            variant_cfg, scenario.topology, workload=list(scenario.workload)
        )
        assert_same_run(baseline.result, variant.result)
        assert baseline.succeeded == variant.succeeded
        assert baseline.succeeded > 0


class TestNonDefaultPoliciesDiverge:
    """The knob is live: auction/reservation actually change the run."""

    def run_policy(self, kind: str):
        config = dataclasses.replace(
            experiment4_base_config(request_count=20),
            global_policy=GlobalPolicyConfig(kind=kind),
        )
        message_module.set_message_counter(0)
        tracer = Tracer(MemorySink())
        run = run_degraded(config, tracer=tracer)
        return run, canonical_lines(tracer.records)

    @pytest.mark.parametrize("kind", ["auction", "reservation"])
    def test_deterministic_but_distinct(self, kind):
        first, first_lines = self.run_policy(kind)
        second, second_lines = self.run_policy(kind)
        assert first_lines == second_lines
        assert first.result.rng_digest == second.result.rng_digest
        baseline, baseline_lines = self.run_policy("eq10")
        assert first_lines != baseline_lines
        # Still a working grid: the clean cell completes fully.
        assert first.succeeded == first.submitted == baseline.submitted
