"""A checkpoint taken inside a PULL round.

Every ten seconds each agent of a periodic-pull grid pulls its
neighbours, and every PULL is answered with an ADVERTISE at the same
virtual instant.  On a 40-agent tree one round is three events at one
time: the round, which sends 78 PULLs inside one transport batch; the
PULL batch's delivery, whose 78 ADVERTISE answers form the next batch;
and that batch's delivery.  The transport keeps no table of its
in-flight messages; a snapshot reads them off the engine's heap.
Stopped after the round fired, or between the PULL batch and its
ADVERTISE batch, the snapshot must list the pending batch with every
message once, in send order, and the resumed run must be the
uninterrupted run byte for byte, its own next snapshot included: that
snapshot lists the restored batch as the first one did.  Under latency
jitter a round's messages are delivered one event each instead, and a
resumed run's next snapshot, a few events later, still lists every
restored delivery that has not fired.
"""

from __future__ import annotations

import json
from dataclasses import asdict, replace

import pytest

import repro.experiments.runner as runner
from repro.checkpoint.format import read_snapshot
from repro.experiments.runner import checkpoint_run, resume_run, run_experiment
from repro.experiments.scenarios import ScenarioSpec, generate_scenario
from repro.net.faults import FaultPlanSpec
from repro.obs.records import canonical_lines
from repro.obs.trace import Tracer
from repro.sim.events import Priority

SPEC = ScenarioSpec(
    name="round-40",
    agent_count=40,
    request_count=12,
    rate=1.0,
    arrival="poisson",
    master_seed=2003,
)
#: The t = 40 s round has fired; its PULL batch is pending.
AFTER_ROUND = 69
#: The PULL batch has been delivered; its ADVERTISE batch is pending.
BETWEEN_BATCHES = 70
#: The kind of the batch pending at each step.
PENDING = {AFTER_ROUND: "pull", BETWEEN_BATCHES: "advertise"}
#: A PULL to each neighbour: 2 × (40 − 1) per round.
ROUND_MESSAGES = 78
#: Each message of this run waits up to 0.3 s: an event of its own.
JITTERED = replace(SPEC.config(), faults=FaultPlanSpec(latency_jitter=0.3))
#: The jittered run's t = 40 s round has fired; its PULLs are pending.
JITTERED_AFTER_ROUND = 685
#: ``(config, step, events the resumed run fires before its own
#: snapshot, the transport listing its pending deliveries)``.  After each
#: plain step the next event fires the one pending batch, so the resumed
#: run snapshots at once.
RESUMED = (
    (SPEC.config(), AFTER_ROUND, 0, "batches"),
    (SPEC.config(), BETWEEN_BATCHES, 0, "batches"),
    (JITTERED, JITTERED_AFTER_ROUND, 5, "in_flight"),
)


@pytest.fixture(scope="module")
def scenario():
    return generate_scenario(SPEC)


def checkpoint(
    scenario, at_step: int, path: str, tracer=None, config=None
) -> dict:
    checkpoint_run(
        SPEC.config() if config is None else config,
        scenario.topology,
        workload=list(scenario.workload),
        at_step=at_step,
        path=path,
        tracer=tracer,
    )
    return read_snapshot(path)


class TestMidRoundCheckpoint:
    def test_snapshot_lists_each_pending_delivery_once_by_sequence(
        self, scenario, tmp_path
    ):
        for at_step in PENDING:
            self.check_listing(
                checkpoint(scenario, at_step, str(tmp_path / f"{at_step}.json")),
                PENDING[at_step],
            )

    @staticmethod
    def check_listing(payload: dict, kind: str) -> None:
        transport = payload["system"]["transport"]
        engine = payload["system"]["engine"]
        for entries in (transport["in_flight"], transport["batches"]):
            sequences = [entry["event"]["sequence"] for entry in entries]
            assert sequences == sorted(set(sequences))
            assert all(s < engine["sequence"] for s in sequences)
        # Every message sent and not yet delivered or dropped is listed.
        listed = len(transport["in_flight"]) + sum(
            len(batch["messages"]) for batch in transport["batches"]
        )
        assert listed == (
            transport["sent"]
            - transport["delivered"]
            - transport["dropped_count"]
            - transport["fault_dropped_count"]
        )
        assert engine["now"] == 40.0
        (batch,) = transport["batches"]
        assert batch["event"]["time"] == 40.0
        assert batch["event"]["priority"] == Priority.DEFAULT
        assert len(batch["messages"]) == ROUND_MESSAGES
        assert {m["kind"] for m in batch["messages"]} == {kind}

    def test_resume_is_byte_identical(self, scenario, tmp_path):
        tracer_full = Tracer()
        full = run_experiment(
            SPEC.config(),
            scenario.topology,
            workload=list(scenario.workload),
            tracer=tracer_full,
        )
        for at_step in PENDING:
            path = str(tmp_path / f"{at_step}.json")
            tracer_pre = Tracer()
            checkpoint(scenario, at_step, path, tracer=tracer_pre)
            tracer_post = Tracer()
            resumed = resume_run(path, tracer=tracer_post)

            assert [asdict(r) for r in full.records] == [
                asdict(r) for r in resumed.records
            ]
            assert json.dumps(asdict(full.metrics), sort_keys=True) == json.dumps(
                asdict(resumed.metrics), sort_keys=True
            )
            assert full.rng_digest == resumed.rng_digest
            assert full.steps == resumed.steps
            assert canonical_lines(tracer_pre.records) + canonical_lines(
                tracer_post.records
            ) == canonical_lines(tracer_full.records)

    def test_snapshot_after_resume_lists_restored_deliveries(
        self, scenario, tmp_path
    ):
        for config, at_step, later, listing in RESUMED:
            first_path = str(tmp_path / "first.json")
            first = checkpoint(scenario, at_step, first_path, config=config)
            uninterrupted = checkpoint(
                scenario,
                at_step + later,
                str(tmp_path / "uninterrupted.json"),
                config=config,
            )
            run = runner._restore(first_path, None)
            runner._drive(run, runner._RULES[run.mode], at_step=at_step + later)
            second_path = str(tmp_path / "second.json")
            runner._write(run, second_path)
            second = read_snapshot(second_path)

            # Each restored delivery is listed again, event and messages
            # unchanged, unless it is one of the *later* events fired.
            restored = first["system"]["transport"][listing]
            listed = second["system"]["transport"][listing]
            kept = [entry for entry in restored if entry in listed]
            assert restored
            assert len(kept) >= len(restored) - later
            assert second == uninterrupted
