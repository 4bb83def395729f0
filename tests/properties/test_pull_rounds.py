"""Pull rounds: one timer per instant pulls exactly as one timer per agent.

``build_grid`` hands every agent's periodic-pull strategy the grid's one
:class:`~repro.agents.advertisement.PullRounds`, which fires every pull
due at one instant from one event and sends them inside one transport
batch: one event delivers a round's PULLs, and one more the ADVERTISEs
answering them.  :class:`tests.oracles.PerAgentPullStrategy` is the
strategy before it: one ``PeriodicProcess`` per agent, and one event per
message.  Swapped in for the shared rounds, it must produce byte-identical
completion records, metrics, RNG digest, handler calls (every one, in
order, with its instant and whole message), transport and agent counters,
and agent registries with their arrival times, while agents stop and
start around round instants, every member of a round stops before the
degraded drain, and a run is checkpointed between rounds of one instant
and between a PULL batch and its ADVERTISE batch (where the resumed
run's next snapshot still lists the restored batches that have not
fired).  The same must hold under a fault plan (loss, link loss,
jitter, a partition, a straggler), churn with membership and healing,
the auction and reservation policies, and a staged workflow; and a handler that schedules anything inside a
batch must be refused.  Each case exercises the rounds' four rules:

1. a starting agent joins the unfired round due now, or opens one;
2. a round re-arming onto an instant that already has a round appends
   its members after that round's;
3. a stopping member leaves its round, and an empty round is cancelled;
4. a snapshot records each member's round and position, and restore
   rebuilds the rounds in that order.
"""

from __future__ import annotations

import json
from dataclasses import asdict, replace
from types import SimpleNamespace

import pytest

import repro.experiments.runner as runner
from repro.agents.membership import MembershipConfig
from repro.agents.policy import GlobalPolicyConfig
from repro.agents.resilience import ResilienceConfig
from repro.checkpoint.codec import encode_message
from repro.checkpoint.format import read_snapshot
from repro.errors import SimulationError
from repro.experiments.experiment7 import experiment7_cells
from repro.experiments.runner import WorkflowStream
from repro.experiments.scenarios import ScenarioSpec, generate_scenario
from repro.net.faults import (
    ChurnSpec,
    FaultPlanSpec,
    LinkFault,
    PartitionWindow,
    StragglerFault,
)
from repro.net.message import MessageKind
from repro.obs.records import EventFired
from repro.obs.trace import Tracer
from repro.sim.events import Priority
from tests.oracles import PerAgentPullStrategy, registry, registry_times, tap

SPEC = ScenarioSpec(
    name="rounds-40",
    agent_count=40,
    request_count=12,
    rate=1.0,
    arrival="poisson",
    master_seed=2003,
)

ARRIVAL, MONITORING = Priority.ARRIVAL, Priority.MONITORING

#: ``(time, priority, agent, action)``.  Rounds fall due every 10 s at
#: ADVERTISEMENT priority, after ARRIVAL and before MONITORING events of
#: the same instant.
AROUND_A_ROUND = (
    # Rule 1: back before the round due at 20 fires, so G5 joins it.
    (19.5, ARRIVAL, "G5", "crash"),
    (20.0, ARRIVAL, "G5", "restart"),
    # Leaves the round due at 20 before it fires (rule 3), and is back
    # after it fired: its own round at 20 re-arms onto 30 (rule 2).
    (20.0, ARRIVAL, "G6", "crash"),
    (20.0, MONITORING, "G6", "restart"),
    # Back after the instant: a round of its own at 25, 35, ...
    (20.0, MONITORING, "G3", "crash"),
    (25.0, ARRIVAL, "G3", "restart"),
    # Joins that round at 25 (rule 1, a round not first in line).
    (24.0, ARRIVAL, "G14", "crash"),
    (25.0, ARRIVAL, "G14", "restart"),
    # Leaves the round due at 30 before it fires, back at 30.5.
    (30.0, ARRIVAL, "G8", "crash"),
    (30.5, ARRIVAL, "G8", "restart"),
)

#: The rounds at 25, 35, ... and at 32, 42, ... lose every member (rule
#: 3), the first one due at 35: G14 starts at that instant, and the
#: degraded rule's stop empties the rest.
EMPTIED = (
    (20.0, MONITORING, "G3", "crash"),
    (25.0, ARRIVAL, "G3", "restart"),
    (24.0, ARRIVAL, "G14", "crash"),
    (25.0, ARRIVAL, "G14", "restart"),
    (30.0, MONITORING, "G14", "crash"),
    (31.0, ARRIVAL, "G3", "crash"),
    (35.0, ARRIVAL, "G14", "restart"),
    (31.0, ARRIVAL, "G9", "crash"),
    (32.0, ARRIVAL, "G9", "restart"),
    (38.0, ARRIVAL, "G9", "crash"),
)


#: G6, then G12, are back after the round at 20 fired: each opens one
#: more round at 20, and both re-arm onto the round at 30.
THREE_ROUNDS_AT_20 = (
    (20.0, ARRIVAL, "G6", "crash"),
    (20.0, MONITORING, "G6", "restart"),
    (19.0, ARRIVAL, "G12", "crash"),
    (20.0, MONITORING, "G12", "restart"),
)


@pytest.fixture(scope="module")
def scenario():
    return generate_scenario(SPEC)


def lossy(config):
    """*config* losing one message in ten, with no retries: requests end
    unresolved, so the degraded drain runs."""
    return replace(config, faults=FaultPlanSpec(drop_probability=0.1))


def arm(config, scenario, lifecycle, tracer=None, workflows=None):
    """A degraded run of *scenario* with *lifecycle* as its churn events
    (so snapshots carry them)."""
    run = runner._arm(
        "degraded",
        config,
        scenario.topology,
        list(scenario.workload),
        workflows,
        tracer,
    )
    system = run.system
    for time, priority, agent, action in lifecycle:
        run.churn.append(
            (
                agent,
                action,
                system.sim.schedule(
                    time,
                    runner._churn_action(system, agent, action),
                    priority=priority,
                    label=f"churn-{action}-{agent}",
                ),
            )
        )
    return run


def observe(run, deliveries: list) -> None:
    """Log every handler call of *run*'s transport: its instant, its
    whole message, and the event that made it (kept apart, as the two
    pull implementations fire different events)."""
    sim = run.system.sim
    tap(
        run.system.transport,
        lambda m: deliveries.append(
            ((sim.now, encode_message(m)), sim.fired_count)
        ),
    )


def outcome(run, deliveries: list) -> dict:
    """Everything the two pull implementations must agree on, and how
    many handler calls shared their event with an earlier one."""
    degraded = runner._complete(run)
    result = degraded.result
    system = run.system
    transport = system.transport
    events = [event for _, event in deliveries]
    return {
        "unresolved": degraded.unresolved,
        "records": json.dumps([asdict(r) for r in result.records], sort_keys=True),
        "metrics": json.dumps(asdict(result.metrics), sort_keys=True),
        "rng_digest": result.rng_digest,
        "now": system.sim.now,
        "deliveries": [call for call, _ in deliveries],
        "transport": (
            transport.sent,
            transport.delivered,
            transport.dropped_count,
            transport.fault_dropped_count,
        ),
        "registries": {
            name: repr(sorted(registry(agent).items()))
            for name, agent in system.agents.items()
        },
        "registry_times": {
            name: repr(sorted(registry_times(agent).items()))
            for name, agent in system.agents.items()
        },
        "stats": {
            name: (
                asdict(agent.stats),
                None if agent.detector is None else asdict(agent.detector.stats),
            )
            for name, agent in system.agents.items()
        },
        "shared": len(events) - len(set(events)),
    }


def run_oracle(config, scenario, lifecycle, monkeypatch, workflows=None) -> dict:
    """*config* with one pull timer per agent and one event per message."""
    with monkeypatch.context() as patch:
        patch.setattr(
            runner,
            "_advertisement",
            lambda config, sim, transport: lambda: PerAgentPullStrategy(
                config.pull_interval
            ),
        )
        deliveries: list = []
        run = arm(config, scenario, lifecycle, workflows=workflows)
        observe(run, deliveries)
        return outcome(run, deliveries)


def run_rounds(
    config, scenario, lifecycle, *, at_step=None, path=None, workflows=None
) -> dict:
    """*config* on the shared rounds, checkpointed and resumed at *at_step*."""
    deliveries: list = []
    run = arm(config, scenario, lifecycle, workflows=workflows)
    observe(run, deliveries)
    if at_step is not None:
        runner._drive(run, runner._RULES[run.mode], at_step=at_step)
        assert run.steps == at_step
        runner._write(run, path)
        run = runner._restore(path, None)
        observe(run, deliveries)
    return outcome(run, deliveries)


def next_snapshot(path, at_step, tmp_path) -> dict:
    """The snapshot a run resumed from *path* writes at *at_step*."""
    run = runner._restore(path, None)
    runner._drive(run, runner._RULES[run.mode], at_step=at_step)
    return write(run, tmp_path / "next.json")


def uninterrupted(config, scenario, lifecycle, at_step, tmp_path) -> dict:
    """The snapshot an uninterrupted run writes at *at_step*."""
    run = arm(config, scenario, lifecycle)
    runner._drive(run, runner._RULES[run.mode], at_step=at_step)
    return write(run, tmp_path / "uninterrupted.json")


def write(run, path) -> dict:
    runner._write(run, str(path))
    return read_snapshot(str(path))


def assert_same(rounds: dict, oracle: dict) -> None:
    for key in oracle:
        if key != "shared":
            assert rounds[key] == oracle[key], key
    # The oracle delivers every message in an event of its own.
    assert oracle["shared"] == 0


class TestPullRoundsMatchPerAgentTimers:
    def test_plain_grid(self, scenario, monkeypatch):
        config = SPEC.config()
        assert_same(
            run_rounds(config, scenario, ()),
            run_oracle(config, scenario, (), monkeypatch),
        )

    def test_stops_and_starts_around_a_round_instant(self, scenario, monkeypatch):
        config = SPEC.config()
        assert_same(
            run_rounds(config, scenario, AROUND_A_ROUND),
            run_oracle(config, scenario, AROUND_A_ROUND, monkeypatch),
        )

    def test_emptied_rounds_then_the_degraded_drain(self, scenario, monkeypatch):
        config = lossy(SPEC.config())
        rounds = run_rounds(config, scenario, EMPTIED)
        oracle = run_oracle(config, scenario, EMPTIED, monkeypatch)
        assert_same(rounds, oracle)
        # Lost requests stay unresolved, so the drain after the stop ran:
        # an empty round left queued would have moved its clock.
        assert oracle["unresolved"] > 0

    def test_checkpoint_between_rounds_of_one_instant(
        self, scenario, monkeypatch, tmp_path
    ):
        config = SPEC.config()
        tracer = Tracer()
        runner._complete(arm(config, scenario, THREE_ROUNDS_AT_20, tracer))
        fired = [r for r in tracer.records if isinstance(r, EventFired)]
        rounds_at_20 = [
            i
            for i, r in enumerate(fired)
            if r.t == 20.0 and r.label == "pull-round"
        ]
        assert len(rounds_at_20) == 3
        first, second, third = rounds_at_20
        # Each round's PULL batch, then the three ADVERTISE batches.
        batches_at_20 = [
            i
            for i, r in enumerate(fired)
            if r.t == 20.0 and r.label == "deliver-batch"
        ]
        assert len(batches_at_20) == 6
        oracle = run_oracle(config, scenario, THREE_ROUNDS_AT_20, monkeypatch)
        # Right after the first round fired, right before each of the two
        # rounds the restarts opened, right after the first PULL batch
        # (its ADVERTISE batch and two PULL batches pending) and right
        # after the last (only ADVERTISE batches pending).
        steps = (first + 1, second, third, batches_at_20[0] + 1, batches_at_20[2] + 1)
        for at_step in steps:
            assert fired[at_step - 1].t == 20.0
            path = str(tmp_path / f"snap-{at_step}.json")
            assert_same(
                run_rounds(
                    config, scenario, THREE_ROUNDS_AT_20, at_step=at_step, path=path
                ),
                oracle,
            )
            pending = read_snapshot(path)["system"]["transport"]["batches"]
            kinds = [{m["kind"] for m in batch["messages"]} for batch in pending]
            if at_step == batches_at_20[0] + 1:
                assert kinds == [{"pull"}, {"pull"}, {"advertise"}]
                # One event later the resumed run's own snapshot still
                # lists the two restored batches that have not fired.
                later = next_snapshot(path, at_step + 1, tmp_path)
                assert later["system"]["transport"]["batches"][:2] == pending[1:]
                assert later == uninterrupted(
                    config, scenario, THREE_ROUNDS_AT_20, at_step + 1, tmp_path
                )
            elif at_step == batches_at_20[2] + 1:
                assert kinds == [{"advertise"}] * 3


#: ``(name, config overrides)`` of the batched-round cases below.
LAYERS = (
    (
        "loss-link-jitter-partition",
        dict(
            faults=FaultPlanSpec(
                drop_probability=0.05,
                latency_jitter=0.3,
                link_faults=(LinkFault("G5", "G2", 0.5),),
                partitions=(
                    PartitionWindow(15.0, 35.0, ("G3", "G8", "G9"), ("G1", "G2")),
                ),
            ),
            resilience=ResilienceConfig.resilient(10.0),
        ),
    ),
    (
        # Without jitter most messages ride the batches, while the
        # straggler's own sends are delayed inside them.
        "loss-link-partition-straggler",
        dict(
            faults=FaultPlanSpec(
                drop_probability=0.05,
                link_faults=(LinkFault("G5", "G2", 0.5),),
                partitions=(
                    PartitionWindow(15.0, 35.0, ("G3", "G8", "G9"), ("G1", "G2")),
                ),
                stragglers=(StragglerFault("G4", response_delay=0.5),),
            ),
            resilience=ResilienceConfig.resilient(10.0),
        ),
    ),
    (
        # Heartbeats every 2 s at MONITORING priority send after each
        # round and before its PULLs are delivered.
        "churn-membership-healing",
        dict(
            churn=ChurnSpec(rate=0.3, downtime=25.0, target="coordinators"),
            resilience=ResilienceConfig.resilient(10.0),
            membership=MembershipConfig(enabled=True, heal=True),
        ),
    ),
    ("auction", dict(global_policy=GlobalPolicyConfig(kind="auction"))),
    ("reservation", dict(global_policy=GlobalPolicyConfig(kind="reservation"))),
)


class TestBatchedRoundsMatchOneEventPerMessage:
    """A round's PULLs in one event and their answers in one more call
    every handler as one event per message does, layer by layer."""

    @pytest.mark.parametrize("name, overrides", LAYERS, ids=[n for n, _ in LAYERS])
    def test_layer(self, name, overrides, scenario, monkeypatch):
        config = SPEC.config(**overrides)
        rounds = run_rounds(config, scenario, ())
        assert_same(rounds, run_oracle(config, scenario, (), monkeypatch))
        jittered = config.faults is not None and config.faults.latency_jitter > 0
        assert (rounds["shared"] == 0) == jittered, name

    def test_staged_workflow(self, monkeypatch):
        (cell,) = experiment7_cells(workflow_count=2, cells=["fork-join-uniform"])
        assert cell.release_mode == "staged"
        stream = WorkflowStream(cell.workflows, cell.release_mode, aware=True)
        grid = SimpleNamespace(topology=cell.topology, workload=())
        rounds = run_rounds(cell.config, grid, (), workflows=stream)
        oracle = run_oracle(cell.config, grid, (), monkeypatch, workflows=stream)
        assert_same(rounds, oracle)
        assert rounds["shared"] > 0
        assert any(call[1]["kind"] == "transfer" for call in oracle["deliveries"])

    def test_a_handler_scheduling_inside_a_batch_is_refused(self, scenario):
        """The close-time guard: a PULL whose handler schedules an event
        (here one due later, which would not even fire out of order)
        stops the run."""
        run = arm(SPEC.config(), scenario, ())
        sim = run.system.sim
        tap(
            run.system.transport,
            lambda m: m.kind is MessageKind.PULL and sim.schedule_in(5.0, lambda: None),
        )
        with pytest.raises(SimulationError, match="batch"):
            runner._complete(run)
