"""A checkpoint taken inside a PULL round.

Every ten seconds each agent of a periodic-pull grid pulls its
neighbours, and every PULL is answered with an ADVERTISE at the same
virtual instant: on a 40-agent tree one round is 196 events at one time,
the deliveries among them zero-delay events in the engine's FIFO.  The
transport keeps no table of its in-flight messages; a snapshot reads
them off the engine's queues.  Stopped mid-round, the snapshot must list
every pending delivery once, in event-sequence order, and the resumed run —
whose restored deliveries sit on the heap while new ones join the FIFO —
must be the uninterrupted run byte for byte, its own next snapshot
included.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

import repro.experiments.runner as runner
from repro.checkpoint.format import read_snapshot
from repro.experiments.runner import checkpoint_run, resume_run, run_experiment
from repro.experiments.scenarios import ScenarioSpec, generate_scenario
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
#: Inside the t = 40 s round, with 78 deliveries queued at that instant.
AT_STEP = 732
#: Events the resumed run fires before its own snapshot.
LATER = 5


@pytest.fixture(scope="module")
def scenario():
    return generate_scenario(SPEC)


def checkpoint(scenario, at_step: int, path: str, tracer=None) -> dict:
    checkpoint_run(
        SPEC.config(),
        scenario.topology,
        workload=list(scenario.workload),
        at_step=at_step,
        path=path,
        tracer=tracer,
    )
    return read_snapshot(path)


def in_flight(payload: dict) -> list:
    return payload["system"]["transport"]["in_flight"]


class TestMidRoundCheckpoint:
    def test_snapshot_lists_each_pending_delivery_once_by_sequence(
        self, scenario, tmp_path
    ):
        payload = checkpoint(scenario, AT_STEP, str(tmp_path / "round.json"))
        entries = in_flight(payload)
        transport = payload["system"]["transport"]
        now = payload["system"]["engine"]["now"]
        sequences = [entry["event"]["sequence"] for entry in entries]
        assert sequences == sorted(set(sequences))
        assert max(sequences) < payload["system"]["engine"]["sequence"]
        # Every message sent and not yet delivered or dropped is listed.
        assert len(entries) == (
            transport["sent"]
            - transport["delivered"]
            - transport["dropped_count"]
            - transport["fault_dropped_count"]
        )
        same_instant = [
            entry
            for entry in entries
            if entry["event"]["time"] == now
            and entry["event"]["priority"] == Priority.DEFAULT
        ]
        assert now == 40.0
        assert len(same_instant) >= 40
        assert {entry["message"]["kind"] for entry in same_instant} <= {
            "pull",
            "advertise",
        }

    def test_resume_is_byte_identical(self, scenario, tmp_path):
        path = str(tmp_path / "round.json")
        tracer_full = Tracer()
        full = run_experiment(
            SPEC.config(),
            scenario.topology,
            workload=list(scenario.workload),
            tracer=tracer_full,
        )
        tracer_pre = Tracer()
        checkpoint(scenario, AT_STEP, path, tracer=tracer_pre)
        tracer_post = Tracer()
        resumed = resume_run(path, tracer=tracer_post)

        assert [asdict(r) for r in full.records] == [
            asdict(r) for r in resumed.records
        ]
        assert json.dumps(asdict(full.metrics), sort_keys=True) == json.dumps(
            asdict(resumed.metrics), sort_keys=True
        )
        assert full.rng_digest == resumed.rng_digest
        assert canonical_lines(tracer_pre.records) + canonical_lines(
            tracer_post.records
        ) == canonical_lines(tracer_full.records)

    def test_snapshot_after_resume_lists_restored_deliveries(
        self, scenario, tmp_path
    ):
        first = checkpoint(scenario, AT_STEP, str(tmp_path / "first.json"))
        uninterrupted = checkpoint(
            scenario, AT_STEP + LATER, str(tmp_path / "uninterrupted.json")
        )
        run = runner._restore(str(tmp_path / "first.json"), None)
        runner._drive(run, runner._RULES[run.mode], at_step=AT_STEP + LATER)
        second_path = str(tmp_path / "second.json")
        runner._write(run, second_path)
        second = read_snapshot(second_path)

        restored = {entry["event"]["sequence"] for entry in in_flight(first)}
        listed = {entry["event"]["sequence"] for entry in in_flight(second)}
        assert len(restored & listed) >= len(restored) - LATER
        assert second == uninterrupted
