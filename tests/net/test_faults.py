"""Tests for the deterministic fault-injection fabric."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.net.faults import (
    ChurnSchedule,
    ChurnSpec,
    FaultPlan,
    FaultPlanSpec,
    LinkFault,
    PartitionWindow,
    StragglerFault,
)
from repro.net.message import Endpoint, Message, MessageKind
from repro.net.transport import Transport
from tests.oracles import churn_events, churn_size, to_json

A, B, C = Endpoint("a", 1), Endpoint("b", 1), Endpoint("c", 1)
NAMES = {"A": A, "B": B, "C": C}


def _msg(sender=A, recipient=B):
    return Message(MessageKind.ADVERTISE, sender, recipient, None)


class TestFaultPlanSpec:
    def test_defaults_are_noop(self):
        assert FaultPlanSpec().is_noop

    def test_any_positive_knob_is_not_noop(self):
        assert not FaultPlanSpec(drop_probability=0.1).is_noop
        assert not FaultPlanSpec(latency_jitter=0.5).is_noop
        assert not FaultPlanSpec(
            link_faults=(LinkFault("A", "B", 0.5),)
        ).is_noop
        assert not FaultPlanSpec(
            partitions=(PartitionWindow(0, 10, ("A",), ("B",)),)
        ).is_noop

    def test_zero_probability_link_fault_stays_noop(self):
        assert FaultPlanSpec(link_faults=(LinkFault("A", "B", 0.0),)).is_noop

    def test_probability_validation(self):
        with pytest.raises(ValidationError):
            FaultPlanSpec(drop_probability=1.5)
        with pytest.raises(ValidationError):
            FaultPlanSpec(latency_jitter=-0.1)
        with pytest.raises(ValidationError):
            LinkFault("A", "B", -0.2)

    def test_partition_validation(self):
        with pytest.raises(ValidationError):
            PartitionWindow(10, 10, ("A",), ("B",))
        with pytest.raises(ValidationError):
            PartitionWindow(0, 10, (), ("B",))
        with pytest.raises(ValidationError):
            PartitionWindow(0, 10, ("A",), ("A", "B"))

    def test_json_round_trip(self):
        spec = FaultPlanSpec(
            drop_probability=0.1,
            latency_jitter=0.5,
            link_faults=(LinkFault("A", "B", 1.0),),
            partitions=(PartitionWindow(5.0, 9.0, ("A",), ("B", "C")),),
        )
        assert FaultPlanSpec.from_json(to_json(spec)) == spec

    def test_json_unknown_keys_rejected(self):
        with pytest.raises(ValidationError, match="unknown"):
            FaultPlanSpec.from_json('{"drop_probabilty": 0.1}')

    def test_json_non_object_rejected(self):
        with pytest.raises(ValidationError):
            FaultPlanSpec.from_json("[1, 2]")
        with pytest.raises(ValidationError):
            FaultPlanSpec.from_json("not json")


class TestFaultPlan:
    def test_stochastic_plan_requires_rng(self):
        with pytest.raises(ValidationError, match="rng"):
            FaultPlan(FaultPlanSpec(drop_probability=0.5))

    def test_partition_only_plan_needs_no_rng(self):
        spec = FaultPlanSpec(partitions=(PartitionWindow(0, 10, ("A",), ("B",)),))
        FaultPlan(spec, endpoints=NAMES)  # does not raise

    def test_unknown_participant_raises_at_construction(self):
        spec = FaultPlanSpec(link_faults=(LinkFault("A", "GHOST", 1.0),))
        with pytest.raises(ValidationError, match="GHOST"):
            FaultPlan(spec, rng=np.random.default_rng(0), endpoints=NAMES)

    def test_zero_plan_consumes_no_randomness(self):
        rng = np.random.default_rng(7)
        shadow = np.random.default_rng(7)
        plan = FaultPlan(FaultPlanSpec(), rng=rng)
        for _ in range(50):
            verdict = plan.on_send(_msg(), now=1.0)
            assert not verdict.drop and verdict.extra_latency == 0.0
        # The plan's stream is untouched: it still matches a fresh twin.
        assert rng.random() == shadow.random()

    def test_certain_drop(self):
        plan = FaultPlan(
            FaultPlanSpec(drop_probability=1.0), rng=np.random.default_rng(0)
        )
        verdict = plan.on_send(_msg(), now=0.0)
        assert verdict.drop and verdict.reason == "loss"

    def test_link_fault_is_directional(self):
        spec = FaultPlanSpec(link_faults=(LinkFault("A", "B", 1.0),))
        plan = FaultPlan(spec, rng=np.random.default_rng(0), endpoints=NAMES)
        assert plan.on_send(_msg(A, B), now=0.0).drop
        assert not plan.on_send(_msg(B, A), now=0.0).drop

    def test_partition_drops_only_crossings_in_window(self):
        spec = FaultPlanSpec(
            partitions=(PartitionWindow(10.0, 20.0, ("A",), ("B",)),)
        )
        plan = FaultPlan(spec, endpoints=NAMES)
        verdicts = [
            plan.on_send(_msg(A, B), now=9.9),   # before
            plan.on_send(_msg(A, B), now=10.0),  # inside
            plan.on_send(_msg(B, A), now=15.0),  # both directions
            plan.on_send(_msg(A, C), now=15.0),  # C in no group
            plan.on_send(_msg(A, B), now=20.0),  # end exclusive
        ]
        assert [v.drop for v in verdicts] == [False, True, True, False, False]
        assert Counter(v.reason for v in verdicts) == {"partition": 2, "": 3}

    def test_jitter_bounded_and_counted(self):
        plan = FaultPlan(
            FaultPlanSpec(latency_jitter=0.5), rng=np.random.default_rng(3)
        )
        reasons = Counter()
        for _ in range(20):
            verdict = plan.on_send(_msg(), now=0.0)
            assert not verdict.drop
            assert 0.0 <= verdict.extra_latency <= 0.5
            reasons[verdict.reason] += 1
        assert reasons == {"jitter": 20}


class TestTransportIntegration:
    def test_fault_drops_count_as_sent_not_delivered(self, sim):
        plan = FaultPlan(
            FaultPlanSpec(drop_probability=1.0), rng=np.random.default_rng(0)
        )
        transport = Transport(sim)
        transport.set_fault_plan(plan)
        transport.register(A, lambda m: None)
        transport.register(B, lambda m: None)
        transport.send(_msg(A, B))
        sim.run()
        assert transport.sent == 1
        assert transport.delivered == 0
        assert transport.fault_dropped_count == 1
        assert transport.dropped_count == 0  # endpoint drops are separate

    def test_jitter_delays_delivery(self, sim):
        plan = FaultPlan(
            FaultPlanSpec(latency_jitter=2.0), rng=np.random.default_rng(1)
        )
        transport = Transport(sim)
        transport.set_fault_plan(plan)
        times = []
        transport.register(A, lambda m: None)
        transport.register(B, lambda m: times.append(sim.now))
        transport.send(_msg(A, B))
        sim.run()
        assert len(times) == 1 and 0.0 < times[0] <= 2.0

    def test_set_fault_plan_installs_and_clears(self, sim):
        transport = Transport(sim)
        inbox = []
        transport.register(A, lambda m: None)
        transport.register(B, inbox.append)
        plan = FaultPlan(
            FaultPlanSpec(drop_probability=1.0), rng=np.random.default_rng(0)
        )
        transport.set_fault_plan(plan)
        transport.send(_msg(A, B))
        transport.set_fault_plan(None)
        transport.send(_msg(A, B))
        sim.run()
        assert transport.fault_dropped_count == 1
        assert len(inbox) == 1


class TestChurn:
    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            ChurnSpec(rate=1.5)
        with pytest.raises(ValidationError):
            ChurnSpec(downtime=0.0)
        with pytest.raises(ValidationError):
            ChurnSpec(window=(0.5, 0.5))
        with pytest.raises(ValidationError):
            ChurnSpec(window=(0.2, 1.5))

    def test_generate_counts_and_pairing(self):
        names = [f"S{i}" for i in range(1, 9)]
        spec = ChurnSpec(rate=0.5, downtime=30.0)
        schedule = ChurnSchedule.generate(
            names, spec, horizon=600.0, rng=np.random.default_rng(5), head="S1"
        )
        assert schedule.crash_count == round(0.5 * 7)  # head excluded
        assert schedule.restart_count == schedule.crash_count
        crashes = {e.agent: e.time for e in schedule if e.action == "crash"}
        restarts = {e.agent: e.time for e in schedule if e.action == "restart"}
        assert "S1" not in crashes
        for agent, crash_at in crashes.items():
            assert 0.1 * 600 <= crash_at <= 0.6 * 600
            assert restarts[agent] == pytest.approx(crash_at + 30.0)

    def test_generate_is_deterministic(self):
        names = ["S1", "S2", "S3", "S4"]
        spec = ChurnSpec(rate=0.5)
        one = ChurnSchedule.generate(
            names, spec, 100.0, np.random.default_rng(9), head="S1"
        )
        two = ChurnSchedule.generate(
            names, spec, 100.0, np.random.default_rng(9), head="S1"
        )
        assert churn_events(one) == churn_events(two)

    def test_zero_rate_is_empty(self):
        schedule = ChurnSchedule.generate(
            ["S1", "S2"], ChurnSpec(rate=0.0), 100.0, np.random.default_rng(0)
        )
        assert churn_size(schedule) == 0

    def test_events_sorted_by_time(self):
        schedule = ChurnSchedule.generate(
            [f"S{i}" for i in range(1, 11)],
            ChurnSpec(rate=1.0, exclude_head=False),
            500.0,
            np.random.default_rng(2),
        )
        times = [e.time for e in schedule]
        assert times == sorted(times)


class TestStragglers:
    def spec(self, **kwargs) -> FaultPlanSpec:
        defaults = dict(node="A", response_delay=3.0, service_factor=2.0)
        defaults.update(kwargs)
        return FaultPlanSpec(stragglers=(StragglerFault(**defaults),))

    def test_validation(self):
        with pytest.raises(ValidationError):
            StragglerFault(node="")
        with pytest.raises(ValidationError):
            StragglerFault(node="A", response_delay=-1.0)
        with pytest.raises(ValidationError):
            StragglerFault(node="A", service_factor=0.5)
        with pytest.raises(ValidationError):
            FaultPlanSpec(
                stragglers=(StragglerFault(node="A"), StragglerFault(node="A"))
            )

    def test_noop_straggler_is_noop(self):
        assert StragglerFault(node="A").is_noop
        assert FaultPlanSpec(stragglers=(StragglerFault(node="A"),)).is_noop
        assert not self.spec().is_noop
        assert not self.spec(response_delay=0.0).is_noop  # factor 2 remains

    def test_service_factor_lookup(self):
        spec = self.spec()
        assert spec.service_factor_for("A") == 2.0
        assert spec.service_factor_for("B") == 1.0

    def test_json_round_trip(self):
        spec = self.spec()
        again = FaultPlanSpec.from_json(to_json(spec))
        assert again == spec

    def test_sends_from_straggler_arrive_late(self):
        plan = FaultPlan(self.spec(), np.random.default_rng(3), NAMES)
        reasons = Counter()
        for _ in range(50):
            verdict = plan.on_send(_msg(sender=A), now=1.0)
            assert not verdict.drop
            assert 1.5 <= verdict.extra_latency <= 4.5  # uniform(0.5,1.5)×3
            reasons[verdict.reason] += 1
        assert reasons == {"straggler": 50}

    def test_sends_to_straggler_are_untouched(self):
        plan = FaultPlan(self.spec(), np.random.default_rng(3), NAMES)
        verdict = plan.on_send(_msg(sender=B, recipient=A), now=1.0)
        assert not verdict.drop and verdict.extra_latency == 0.0
        assert verdict.reason == ""

    def test_straggler_and_jitter_compose(self):
        spec = FaultPlanSpec(
            latency_jitter=0.5,
            stragglers=(StragglerFault(node="A", response_delay=3.0),),
        )
        plan = FaultPlan(spec, np.random.default_rng(3), NAMES)
        verdict = plan.on_send(_msg(sender=A), now=1.0)
        assert verdict.reason == "straggler+jitter"
        assert verdict.extra_latency > 1.5

    def test_delayless_straggler_needs_no_rng(self):
        spec = FaultPlanSpec(
            stragglers=(StragglerFault(node="A", service_factor=2.0),)
        )
        plan = FaultPlan(spec, endpoints=NAMES)  # must not raise
        verdict = plan.on_send(_msg(sender=A), now=1.0)
        assert verdict.extra_latency == 0.0

    def test_unknown_straggler_node_raises(self):
        with pytest.raises(ValidationError):
            FaultPlan(self.spec(node="Z"), np.random.default_rng(0), NAMES)


class TestCoordinatorChurn:
    NAMES = [f"S{i}" for i in range(1, 9)]
    COORDS = ["S2", "S3"]

    def test_target_validation(self):
        with pytest.raises(ValidationError):
            ChurnSpec(target="heads")
        assert ChurnSpec(target="coordinators").target == "coordinators"

    def test_targeted_generate_requires_roles(self):
        spec = ChurnSpec(rate=0.5, target="coordinators")
        with pytest.raises(ValidationError, match="coordinators"):
            ChurnSchedule.generate(
                self.NAMES, spec, 100.0, np.random.default_rng(1), head="S1"
            )

    def test_coordinator_target_crashes_only_coordinators(self):
        spec = ChurnSpec(rate=1.0, target="coordinators")
        schedule = ChurnSchedule.generate(
            self.NAMES,
            spec,
            100.0,
            np.random.default_rng(1),
            head="S1",
            coordinators=self.COORDS,
        )
        assert {e.agent for e in schedule} == set(self.COORDS)

    def test_leaves_target_spares_coordinators(self):
        spec = ChurnSpec(rate=1.0, target="leaves", exclude_head=False)
        schedule = ChurnSchedule.generate(
            self.NAMES,
            spec,
            100.0,
            np.random.default_rng(1),
            coordinators=self.COORDS + ["S1"],
        )
        crashed = {e.agent for e in schedule if e.action == "crash"}
        assert crashed == set(self.NAMES) - set(self.COORDS) - {"S1"}
