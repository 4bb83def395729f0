"""Resume-equivalence for in-flight global-policy protocol state.

Counterpart of ``test_resume_equivalence.py`` for the policy layer: a
snapshot taken *mid-auction* (an open CFP round with its bid timer
armed) or *mid-reservation* (a RESERVE awaiting CONFIRM, and a booked
window pinning a neighbour's freetime) must resume byte-identically —
same completion records, metrics, canonical trace, and RNG digest as
the uninterrupted run.

The step grids were chosen so at least one snapshot lands inside the
protocol window; each test asserts that it actually did (via the
snapshot payload), so drift in event counts re-tunes the grid loudly
instead of silently testing nothing.
"""

from __future__ import annotations

import json
from dataclasses import asdict, replace

from repro.agents.policy import GlobalPolicyConfig
from repro.checkpoint.format import read_snapshot
from repro.experiments.config import ExperimentConfig
from repro.experiments.experiment4 import experiment4_base_config
from repro.experiments.runner import checkpoint_run, resume_run, run_degraded
from repro.obs.records import canonical_lines
from repro.obs.trace import Tracer


def policy_config(kind: str) -> ExperimentConfig:
    return replace(
        experiment4_base_config(request_count=20),
        global_policy=GlobalPolicyConfig(kind=kind),
    )


def metrics_json(metrics) -> str:
    return json.dumps(asdict(metrics), sort_keys=True)


def assert_equivalent(full, resumed, full_lines, combo_lines):
    assert [asdict(r) for r in full.records] == [
        asdict(r) for r in resumed.records
    ]
    assert metrics_json(full.metrics) == metrics_json(resumed.metrics)
    assert full.rng_digest == resumed.rng_digest
    assert combo_lines == full_lines


def policy_states(payload):
    return [
        state.get("policy") or {}
        for state in payload["system"]["agents"].values()
    ]


def in_flight_types(payload):
    """Payload types of the messages a snapshot holds in flight."""
    return {
        entry["message"]["payload"]["type"]
        for entry in payload["system"]["transport"]["in_flight"]
    }


class PolicyResumeHarness:
    """Shared sweep: full run once, then checkpoint/resume per step."""

    kind: str
    steps: tuple
    #: a message payload type some snapshot must hold in flight, if any
    in_flight = None
    #: payload predicate: "this snapshot landed mid-protocol"
    @staticmethod
    def mid_protocol(payload) -> bool:
        raise NotImplementedError

    def test_resume_is_byte_identical_mid_protocol(self, tmp_path):
        config = policy_config(self.kind)
        tracer_full = Tracer()
        full = run_degraded(config, tracer=tracer_full)
        assert full.succeeded == full.submitted  # clean cell completes

        mid_hits = 0
        carried = set()
        for at_step in self.steps:
            path = str(tmp_path / f"{self.kind}-{at_step}.json")
            tracer_pre = Tracer()
            checkpoint_run(
                config,
                mode="degraded",
                tracer=tracer_pre,
                at_step=at_step,
                path=path,
            )
            snapshot = read_snapshot(path)
            mid_hits += self.mid_protocol(snapshot)
            carried |= in_flight_types(snapshot)
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
        assert mid_hits > 0, (
            f"no snapshot landed mid-{self.kind}; re-tune the step grid"
        )
        assert self.in_flight is None or self.in_flight in carried, (
            f"no snapshot held a {self.in_flight!r} message in flight; "
            "re-tune the step grid"
        )


class TestMidAuctionResume(PolicyResumeHarness):
    kind = "auction"
    # 20 lands with BIDs in flight, so the snapshot carries "bid"
    # message payloads; 51 and 92 land inside open CFP rounds (bid timer
    # armed, bids partially collected), 51 also with the t = 10 s round's
    # ADVERTISE batch pending; 150 is late but still inside the degraded
    # rule (the run resolves at step 152; checkpoint_run refuses a step
    # the rule never reaches).
    steps = (20, 51, 92, 150)
    in_flight = "bid"

    @staticmethod
    def mid_protocol(payload) -> bool:
        return any(state.get("open") for state in policy_states(payload))


class TestMidReservationResume(PolicyResumeHarness):
    kind = "reservation"
    # 18 lands with a booked window open; 79 with a RESERVE awaiting
    # CONFIRM *and* a window, and the t = 20 s round's ADVERTISE batch
    # pending; 128 is late but still inside the degraded rule (the run
    # resolves at step 130; see the auction grid note).
    steps = (18, 79, 128)

    @staticmethod
    def mid_protocol(payload) -> bool:
        return any(
            state.get("pending") or state.get("bookings")
            for state in policy_states(payload)
        )

    def test_snapshot_carries_pending_and_booking(self, tmp_path):
        """Step 79's snapshot holds both halves of the protocol state."""
        path = str(tmp_path / "resv-79.json")
        checkpoint_run(
            policy_config(self.kind), mode="degraded", at_step=79, path=path
        )
        states = policy_states(read_snapshot(path))
        assert any(state.get("pending") for state in states)
        assert any(state.get("bookings") for state in states)
