"""Resume-equivalence: checkpoint + restore must change *nothing*.

The correctness bar for the whole checkpoint fabric: a run snapshotted at
step T and resumed to completion must be byte-identical to the
uninterrupted run — completion records, metrics, canonical trace lines,
and the final RNG digest.  Any drift (a re-ordered dict, a re-ordered
in-flight delivery, an extra RNG draw) shows up here.  A snapshot is
itself a function of the run alone: what else the process ran before it
must not change a byte.
"""

from __future__ import annotations

import json
from dataclasses import asdict, replace

import pytest

from repro.checkpoint.format import read_snapshot, write_snapshot
from repro.checkpoint.snapshot import decode_config, encode_config
from repro.errors import CheckpointError, ExperimentError
from repro.experiments.config import ExperimentConfig, table2_experiments
from repro.experiments.experiment4 import (
    degradation_config,
    experiment4_base_config,
)
from repro.experiments.runner import (
    checkpoint_run,
    resume_run,
    run_degraded,
    run_experiment,
)
from repro.obs.records import canonical_lines
from repro.obs.trace import Tracer
from repro.scheduling.scheduler import SchedulingPolicy

SEEDS = (2003, 7, 11, 23, 42)
#: Inside every seed's strict run but seed 11's (67 events).
AT_STEP = 70


def strict_config(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        name=f"ckpt-{seed}",
        policy=SchedulingPolicy.GA,
        agents_enabled=True,
        request_count=12,
        master_seed=seed,
    )


def metrics_json(metrics) -> str:
    # GridMetrics contains NaN epsilons for idle resources; dataclass
    # equality fails on NaN, JSON text comparison does not.
    return json.dumps(asdict(metrics), sort_keys=True)


def assert_equivalent(full, resumed, full_lines, combo_lines):
    assert [asdict(r) for r in full.records] == [asdict(r) for r in resumed.records]
    assert metrics_json(full.metrics) == metrics_json(resumed.metrics)
    assert full.rng_digest == resumed.rng_digest
    assert combo_lines == full_lines


class TestStrictResume:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_resume_is_byte_identical(self, seed, tmp_path):
        path = str(tmp_path / "snap.json")

        tracer_full = Tracer()
        full = run_experiment(strict_config(seed), tracer=tracer_full)

        # Seed 11's run ends after 67 events: each seed is snapshotted
        # inside its own run.
        tracer_pre = Tracer()
        checkpoint_run(
            strict_config(seed),
            tracer=tracer_pre,
            at_step=min(AT_STEP, full.steps - 1),
            path=path,
        )
        tracer_post = Tracer()
        resumed = resume_run(path, tracer=tracer_post)

        assert_equivalent(
            full,
            resumed,
            canonical_lines(tracer_full.records),
            canonical_lines(tracer_pre.records)
            + canonical_lines(tracer_post.records),
        )

    def test_checkpointing_during_run_does_not_perturb_it(self, tmp_path):
        path = str(tmp_path / "rolling.json")
        plain = run_experiment(strict_config(2003))
        rolling = run_experiment(
            strict_config(2003), checkpoint_every=25, checkpoint_path=path
        )
        assert plain.rng_digest == rolling.rng_digest
        assert metrics_json(plain.metrics) == metrics_json(rolling.metrics)
        # The rolling snapshot itself must be resumable.
        checkpoint_run(strict_config(2003), at_step=50, path=path)
        resumed = resume_run(path)
        assert resumed.rng_digest == plain.rng_digest

    def test_at_step_must_be_positive(self, tmp_path):
        with pytest.raises(ExperimentError, match="at_step"):
            checkpoint_run(
                strict_config(2003), at_step=0, path=str(tmp_path / "never.json")
            )

    def test_unknown_mode_refused(self, tmp_path):
        with pytest.raises(ExperimentError, match="unknown run mode"):
            checkpoint_run(
                strict_config(2003),
                mode="experiment",
                at_step=1,
                path=str(tmp_path / "never.json"),
            )

    def test_step_past_the_stop_rule_refused(self, tmp_path):
        """Seed 11's 12-request run ends after 67 events: a snapshot at
        step 70 would hold a world the uninterrupted run never enters."""
        path = tmp_path / "never.json"
        assert run_experiment(strict_config(11)).steps == 67
        with pytest.raises(ExperimentError, match="after 67 events"):
            checkpoint_run(strict_config(11), at_step=AT_STEP, path=str(path))
        assert not path.exists()

    def test_resume_rejects_wrong_kind(self, tmp_path):
        """A snapshot whose mode names no stop rule is refused."""
        path = str(tmp_path / "deg.json")
        checkpoint_run(
            degraded_config(), mode="degraded", at_step=AT_STEP, path=path
        )
        payload = read_snapshot(path)
        payload["mode"] = "experiment"
        write_snapshot(path, payload)
        with pytest.raises(CheckpointError, match="mode 'experiment'"):
            resume_run(path)


class TestSnapshotCompatibility:
    def test_unknown_top_level_config_key_rejected(self):
        data = encode_config(strict_config(2003)) | {"bogus_knob": 1}
        with pytest.raises(CheckpointError, match="bogus_knob"):
            decode_config(data)

    def test_retired_knob_refused(self, tmp_path):
        """A snapshot from a build with a wider config surface is refused."""
        path = str(tmp_path / "snap.json")
        checkpoint_run(strict_config(2003), at_step=AT_STEP, path=path)
        current = read_snapshot(path)
        for section, key, value in (
            ((), "monitor_poll_interval", 300.0),
            (("resilience",), "ack_timeout", 3.0),
        ):
            payload = json.loads(json.dumps(current))
            target = payload["config"]
            for name in section:
                target = target[name]
            target[key] = value
            write_snapshot(path, payload)
            with pytest.raises(CheckpointError, match=key):
                resume_run(path)


class TestSnapshotPurity:
    def test_another_run_between_checkpoints_changes_no_byte(self, tmp_path):
        """Two checkpoints of one config at one step, with another run of
        the same process between them, write byte-identical files."""
        config = table2_experiments(request_count=20)[2]
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        checkpoint_run(config, at_step=70, path=str(first))
        run_experiment(config)
        checkpoint_run(config, at_step=70, path=str(second))
        assert first.read_bytes() == second.read_bytes()


def degraded_config() -> ExperimentConfig:
    return degradation_config(
        experiment4_base_config(request_count=20),
        loss=0.2,
        churn_rate=0.25,
    )


class TestDegradedResume:
    def test_faulty_cell_resume_is_byte_identical(self, tmp_path):
        """The Experiment-4 acceptance cell: 20% loss, 25% churn."""
        path = str(tmp_path / "snap.json")
        tracer_full = Tracer()
        full = run_degraded(degraded_config(), tracer=tracer_full)

        tracer_pre = Tracer()
        checkpoint_run(
            degraded_config(),
            mode="degraded",
            tracer=tracer_pre,
            at_step=230,
            path=path,
        )
        tracer_post = Tracer()
        resumed = resume_run(path, tracer=tracer_post)

        assert_equivalent(
            full.result,
            resumed.result,
            canonical_lines(tracer_full.records),
            canonical_lines(tracer_pre.records)
            + canonical_lines(tracer_post.records),
        )
        assert full.counters == resumed.counters


class TestAdvertisementResume:
    """The grid's one advertisement strategy is recorded once, beside the
    agents, and restores exactly."""

    def test_pull_rounds_are_one_grid_record(self, tmp_path):
        path = str(tmp_path / "snap.json")
        checkpoint_run(strict_config(2003), at_step=AT_STEP, path=path)
        system = read_snapshot(path)["system"]
        assert all("advertisement" not in agent for agent in system["agents"].values())
        members = [
            name
            for rnd in system["advertisement"]["rounds"]
            for name in rnd["members"]
        ]
        assert sorted(members) == sorted(system["agents"])

    def test_push_grid_resume_is_byte_identical(self, tmp_path):
        """Event push across churn: three agents are down at the snapshot
        and start again after it; the resumed run, and its last periodic
        snapshot, match the uninterrupted run's."""
        config = replace(degraded_config(), advertisement="push")
        path = str(tmp_path / "snap.json")
        rolling = {name: str(tmp_path / f"{name}.json") for name in ("full", "resumed")}
        tracer_full = Tracer()
        full = run_degraded(
            config, tracer=tracer_full, checkpoint_every=25,
            checkpoint_path=rolling["full"],
        )
        tracer_pre = Tracer()
        checkpoint_run(
            config, mode="degraded", tracer=tracer_pre, at_step=100, path=path
        )
        advertisement = read_snapshot(path)["system"]["advertisement"]
        assert len(advertisement["active"]) == 9
        assert len(advertisement["last_push"]) == 12
        assert full.restarts == 3
        tracer_post = Tracer()
        resumed = resume_run(
            path, tracer=tracer_post, checkpoint_every=25,
            checkpoint_path=rolling["resumed"],
        )
        assert_equivalent(
            full.result,
            resumed.result,
            canonical_lines(tracer_full.records),
            canonical_lines(tracer_pre.records)
            + canonical_lines(tracer_post.records),
        )
        assert full.counters == resumed.counters
        assert read_snapshot(rolling["resumed"]) == read_snapshot(rolling["full"])


class TestCheckpointCadence:
    @pytest.mark.parametrize("kind", ["experiment", "degraded"])
    def test_zero_cadence_rejected_for_both_kinds(self, kind, tmp_path):
        """``resume --checkpoint-every 0`` is a usage error, not a crash."""
        snap, again = str(tmp_path / "snap.json"), str(tmp_path / "again.json")
        if kind == "experiment":
            checkpoint_run(strict_config(2003), at_step=AT_STEP, path=snap)
        else:
            checkpoint_run(
                degraded_config(), mode="degraded", at_step=AT_STEP, path=snap
            )
        with pytest.raises(ExperimentError, match="checkpoint_every must be >= 1"):
            resume_run(snap, checkpoint_every=0, checkpoint_path=again)


def healing_cell_config() -> ExperimentConfig:
    """An Experiment-5 cell: permanent coordinator churn + grey leaves."""
    from repro.experiments.casestudy import case_study_topology
    from repro.experiments.experiment5 import experiment5_config

    return experiment5_config(
        experiment4_base_config(request_count=20),
        case_study_topology(),
        churn_rate=0.5,
        straggler_count=2,
        healing=True,
    )


class TestMidHealResume:
    """Checkpoint/restore must round-trip *during* a repair byte-identically.

    The hard state: a confirmed-dead parent, an orphaned healer with an
    in-flight ADOPT and its retry timer armed, detector leases mid-lease,
    and possibly results held by a crashed agent.  Snapshots are taken at
    several points across the run; at least one must actually land inside
    a repair window (the test fails loudly if the sweep never does, so
    the step grid can be re-tuned rather than silently passing).
    """

    # 311 and 393 land inside the two repair windows (t=18 and t=22, an
    # in-flight ADOPT each); the later points cover steady post-repair
    # state.  All must stay inside the degraded rule's step count (3,131):
    # checkpoint_run refuses a step the rule never reaches.
    STEPS = (311, 393, 1200, 2400)

    @staticmethod
    def snapshot_mid_heal(payload) -> bool:
        agents = payload["system"]["agents"].values()
        return any(
            state["membership"] is not None
            and state["membership"]["healer"]["pending"] is not None
            for state in agents
        )

    def test_resume_is_byte_identical_across_the_repair(self, tmp_path):
        from repro.checkpoint.format import read_snapshot
        config = healing_cell_config()
        tracer_full = Tracer()
        full = run_degraded(config, tracer=tracer_full)
        assert full.crashes > 0 and full.membership is not None

        mid_heal_hits = 0
        for at_step in self.STEPS:
            path = str(tmp_path / f"heal-{at_step}.json")
            tracer_pre = Tracer()
            checkpoint_run(
                config,
                mode="degraded",
                tracer=tracer_pre,
                at_step=at_step,
                path=path,
            )
            mid_heal_hits += self.snapshot_mid_heal(read_snapshot(path))
            tracer_post = Tracer()
            resumed = resume_run(path, tracer=tracer_post)
            assert_equivalent(
                full.result,
                resumed.result,
                canonical_lines(tracer_full.records),
                canonical_lines(tracer_pre.records)
                + canonical_lines(tracer_post.records),
            )
            assert full.counters == resumed.counters
            assert full.membership == resumed.membership
        assert mid_heal_hits > 0, (
            "no snapshot landed mid-heal; re-tune STEPS to cover a repair"
        )
