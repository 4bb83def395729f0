"""Scenario-generator determinism and arrival-process sanity.

A scenario is specified to be a pure function of its spec: same spec →
byte-identical grid and workload (witnessed by the sha256 fingerprint),
and the three RNG streams are isolated so changing the arrival process
never reshuffles request targeting.  Generated scenarios must also ride
the existing checkpoint fabric unchanged — snapshotting a ≥500-agent
generated run mid-flight and resuming must be byte-identical to the
uninterrupted run.
"""

from __future__ import annotations

import json
from dataclasses import asdict, replace

import pytest

import repro.net.message as message_module
from repro.errors import ExperimentError
from repro.experiments.runner import (
    checkpoint_run,
    resume_run,
    run_experiment,
)
from repro.experiments.scenarios import (
    ARRIVAL_PROCESSES,
    MAX_AGENTS,
    PARETO_ALPHA,
    ScenarioSpec,
    generate_arrival_times,
    generate_scenario,
    generate_topology,
    scenario_fingerprint,
)
from repro.scheduling.scheduler import SchedulingPolicy


def spec_for(arrival: str = "poisson", **overrides) -> ScenarioSpec:
    base = dict(
        name=f"t-{arrival}",
        agent_count=40,
        request_count=400,
        rate=2.0,
        arrival=arrival,
        master_seed=2003,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestDeterminism:
    @pytest.mark.parametrize("arrival", ARRIVAL_PROCESSES)
    def test_same_spec_same_fingerprint(self, arrival):
        spec = spec_for(arrival)
        first = generate_scenario(spec)
        second = generate_scenario(spec)
        assert scenario_fingerprint(first) == scenario_fingerprint(second)
        assert first.workload == second.workload
        assert first.topology.platforms == second.topology.platforms

    def test_different_seed_different_scenario(self):
        a = generate_scenario(spec_for("poisson"))
        b = generate_scenario(spec_for("poisson", master_seed=7))
        assert scenario_fingerprint(a) != scenario_fingerprint(b)

    def test_arrival_process_does_not_reshuffle_targeting(self):
        # Stream isolation: specs differing only in arrival process hit
        # the same agents with the same applications and deadline draws.
        scenarios = {
            arrival: generate_scenario(spec_for(arrival))
            for arrival in ("uniform", "poisson", "pareto")
        }
        targeting = {
            arrival: [
                # Recovering the offset as (t + offset) - t reintroduces
                # float noise that scales with t; 1µs is far below any
                # drawn deadline bound.
                (w.agent_name, w.application,
                 round(w.deadline - w.submit_time, 6))
                for w in scenario.workload
            ]
            for arrival, scenario in scenarios.items()
        }
        assert targeting["uniform"] == targeting["poisson"]
        assert targeting["poisson"] == targeting["pareto"]

    def test_topology_is_branching_tree(self):
        spec = spec_for("uniform", agent_count=40, branching=3)
        topology = generate_topology(spec)
        names = list(topology.agent_names)
        assert len(names) == 40
        assert topology.parent_of[names[0]] is None
        for i, name in enumerate(names[1:], start=1):
            assert topology.parent_of[name] == names[(i - 1) // 3]


class TestArrivalProcesses:
    @pytest.mark.parametrize("arrival", ARRIVAL_PROCESSES)
    def test_times_strictly_increase(self, arrival):
        times = generate_arrival_times(spec_for(arrival))
        assert len(times) == 400
        assert all(b > a for a, b in zip(times, times[1:]))
        assert times[0] > 0.0

    def test_uniform_is_metronomic(self):
        times = generate_arrival_times(spec_for("uniform", rate=4.0))
        assert times == pytest.approx([(i + 1) * 0.25 for i in range(400)])

    def test_poisson_mean_rate(self):
        spec = spec_for("poisson", request_count=4000, rate=2.0)
        times = generate_arrival_times(spec)
        mean_gap = times[-1] / len(times)
        assert mean_gap == pytest.approx(0.5, rel=0.1)

    def test_pareto_gaps_respect_scale_floor(self):
        # Pareto-I support starts at x_m = (α-1)/(α·rate); no gap below.
        spec = spec_for("pareto", rate=2.0)
        times = generate_arrival_times(spec)
        x_m = (PARETO_ALPHA - 1.0) * 0.5 / PARETO_ALPHA
        gaps = [b - a for a, b in zip([0.0] + times, times)]
        assert min(gaps) >= x_m
        assert max(gaps) > 3 * x_m  # heavy tail actually shows up

    def test_mmpp_is_burstier_than_poisson(self):
        spec = spec_for("mmpp", request_count=2000)
        times = generate_arrival_times(spec)
        gaps = [b - a for a, b in zip(times, times[1:])]
        mean = sum(gaps) / len(gaps)
        var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
        # Index of dispersion of an interrupted Poisson process exceeds
        # the exponential's 1.0 by construction.
        assert var / mean**2 > 1.5

    def test_validation_rejects_bad_specs(self):
        with pytest.raises(ExperimentError, match="agent_count"):
            spec_for("poisson", agent_count=MAX_AGENTS + 1)
        with pytest.raises(ExperimentError, match="arrival"):
            spec_for("sawtooth")
        with pytest.raises(ExperimentError, match="rate"):
            spec_for("poisson", rate=0.0)


class TestGeneratedScenarioCheckpointing:
    def test_500_agent_round_trip_is_byte_identical(self, tmp_path):
        spec = ScenarioSpec(
            name="rt-500",
            agent_count=500,
            request_count=60,
            rate=2.0,
            arrival="mmpp",
            master_seed=41,
        )
        scenario = generate_scenario(spec)
        config = spec.config(policy=SchedulingPolicy.FIFO)
        path = str(tmp_path / "scenario.json")

        message_module.set_message_counter(0)
        full = run_experiment(
            config, scenario.topology, workload=list(scenario.workload)
        )
        message_module.set_message_counter(0)
        checkpoint_run(
            config,
            scenario.topology,
            workload=list(scenario.workload),
            at_step=250,
            path=path,
        )
        resumed = resume_run(path)

        assert [asdict(r) for r in full.records] == [
            asdict(r) for r in resumed.records
        ]
        assert json.dumps(asdict(full.metrics), sort_keys=True) == json.dumps(
            asdict(resumed.metrics), sort_keys=True
        )
        assert full.rng_digest == resumed.rng_digest

    def test_config_mirrors_spec(self):
        spec = spec_for("poisson", rate=4.0, master_seed=11)
        config = spec.config(policy=SchedulingPolicy.GA, request_count=10)
        assert config.master_seed == 11
        assert config.request_interval == pytest.approx(0.25)
        assert config.request_count == 10
        assert config.policy is SchedulingPolicy.GA
        base = spec.config()
        assert base.request_count == spec.request_count
        assert replace(base, name="x").name == "x"


class TestChaosTiers:
    def test_default_is_none_and_validated(self):
        assert spec_for().chaos == "none"
        with pytest.raises(ExperimentError, match="chaos"):
            spec_for(chaos="tornado")

    def test_none_tier_leaves_fingerprint_and_config_unchanged(self):
        """chaos="none" is byte-invisible: same fingerprint, same config."""
        plain = generate_scenario(spec_for())
        explicit = generate_scenario(spec_for(chaos="none"))
        assert scenario_fingerprint(plain) == scenario_fingerprint(explicit)
        config = explicit.spec.config()
        assert config.faults is None and config.churn is None
        assert not config.membership.enabled
        assert not config.resilience.enabled

    def test_each_tier_stamps_the_fingerprint(self):
        from repro.experiments.scenarios import CHAOS_PRESETS

        prints = {
            chaos: scenario_fingerprint(generate_scenario(spec_for(chaos=chaos)))
            for chaos in CHAOS_PRESETS
        }
        assert len(set(prints.values())) == len(CHAOS_PRESETS)

    def test_chaos_changes_nothing_but_the_fingerprint_stamp(self):
        """The grid and workload are chaos-independent; only the injected
        failure config (and hence the fingerprint) differs."""
        plain = generate_scenario(spec_for())
        chaotic = generate_scenario(spec_for(chaos="grey-combo"))
        assert plain.topology.platforms == chaotic.topology.platforms
        assert plain.workload == chaotic.workload

    def test_straggler_names_are_trailing_leaves(self):
        spec = spec_for(chaos="stragglers", agent_count=100)
        names = spec.straggler_names()
        assert names == ("G99", "G100")
        assert spec_for(chaos="stragglers", agent_count=40).straggler_names() == (
            "G40",
        )
        # Only the grey tiers straggle; the head never does.
        assert spec_for(chaos="loss").straggler_names() == ()
        assert "G1" not in spec_for(
            chaos="grey-combo", agent_count=2
        ).straggler_names()

    def test_coordinator_churn_tier_arms_the_full_stack(self):
        from repro.experiments.scenarios import (
            CHAOS_CHURN_DOWNTIME,
            CHAOS_CHURN_RATE,
        )

        config = spec_for(chaos="coordinator-churn").config()
        assert config.name.endswith("-coordinator-churn")
        assert config.churn is not None
        assert config.churn.target == "coordinators"
        assert config.churn.rate == CHAOS_CHURN_RATE
        assert config.churn.downtime == CHAOS_CHURN_DOWNTIME
        assert config.faults is None
        assert config.resilience.enabled
        assert config.membership.enabled and config.membership.heal

    def test_grey_combo_tier_composes_all_faults(self):
        spec = spec_for(chaos="grey-combo")
        config = spec.config()
        assert config.faults is not None
        assert config.faults.drop_probability > 0
        assert config.faults.latency_jitter > 0
        assert [s.node for s in config.faults.stragglers] == list(
            spec.straggler_names()
        )
        assert config.churn is not None

    def test_overrides_beat_the_chaos_wiring(self):
        from repro.agents.membership import MembershipConfig

        static = MembershipConfig(enabled=True, heal=False)
        config = spec_for(chaos="coordinator-churn").config(membership=static)
        assert config.membership is static


class TestLossTier:
    @pytest.mark.parametrize("arrival,seed", [("pareto", 2003), ("uniform", 2004)])
    def test_every_acked_request_resolves(self, arrival, seed):
        """The 13-agent loss tier passes the trace checker.

        A request can bounce between the head's best-effort forward and
        the child's escalation, reaching the head a second time before
        the head's ACK of the earlier hop arrives.  That late ACK must
        clear only the hop it acknowledges; clearing the new forward's
        timer instead left a dropped forward with no retry and no
        failure result (``[ack-resolution] ... never completed``).
        """
        from repro.experiments.runner import run_degraded
        from repro.obs.check import check_trace
        from repro.obs.trace import MemorySink, Tracer

        spec = ScenarioSpec(
            name=f"a13-{arrival}",
            agent_count=13,
            request_count=40,
            arrival=arrival,
            master_seed=seed,
            chaos="loss",
        )
        scenario = generate_scenario(spec)
        tracer = Tracer(MemorySink())
        run_degraded(
            spec.config(policy=SchedulingPolicy.FIFO),
            scenario.topology,
            workload=list(scenario.workload),
            tracer=tracer,
        )
        assert check_trace(tracer.records) == []
