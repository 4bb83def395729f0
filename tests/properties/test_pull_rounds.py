"""Pull rounds: one timer per instant pulls exactly as one timer per agent.

``build_grid`` hands every agent's periodic-pull strategy the grid's one
:class:`~repro.agents.advertisement.PullRounds`, which fires every pull
due at one instant from one event.  :class:`tests.oracles.PerAgentPullStrategy`
is the strategy before it: one ``PeriodicProcess`` per agent.  Swapped in
for the shared rounds, it must produce byte-identical completion records,
metrics, RNG digest, deliveries (every one, in order), send count and
agent registries, while agents stop and start around round instants, every
member of a round stops before the degraded drain, and a run is
checkpointed between rounds of one instant.  Each case exercises
the rounds' four rules:

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

import pytest

import repro.experiments.runner as runner
from repro.experiments.scenarios import ScenarioSpec, generate_scenario
from repro.net.faults import FaultPlanSpec
from repro.obs.records import EventFired
from repro.obs.trace import Tracer
from repro.sim.events import Priority
from tests.oracles import PerAgentPullStrategy, registry, tap

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


def arm(config, scenario, lifecycle, tracer=None):
    """A degraded run of *scenario* with *lifecycle* as its churn events
    (so snapshots carry them)."""
    run = runner._arm(
        "degraded", config, scenario.topology, list(scenario.workload), None, tracer
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
    """Log every delivery of *run*'s transport: its instant and message."""
    sim = run.system.sim
    tap(
        run.system.transport,
        lambda m: deliveries.append(
            (sim.now, m.kind.value, str(m.sender), str(m.recipient))
        ),
    )


def outcome(run, deliveries: list) -> dict:
    """Everything the two pull implementations must agree on."""
    degraded = runner._complete(run)
    result = degraded.result
    system = run.system
    return {
        "unresolved": degraded.unresolved,
        "records": json.dumps([asdict(r) for r in result.records], sort_keys=True),
        "metrics": json.dumps(asdict(result.metrics), sort_keys=True),
        "rng_digest": result.rng_digest,
        "now": system.sim.now,
        "deliveries": deliveries,
        "sent": system.transport.sent,
        "registries": {
            name: repr(sorted(registry(agent).items()))
            for name, agent in system.agents.items()
        },
        "stats": {name: asdict(agent.stats) for name, agent in system.agents.items()},
    }


def run_oracle(config, scenario, lifecycle, monkeypatch) -> dict:
    """*config* with one pull timer per agent."""
    with monkeypatch.context() as patch:
        patch.setattr(
            runner,
            "_advertisement",
            lambda config, sim: lambda: PerAgentPullStrategy(config.pull_interval),
        )
        deliveries: list = []
        run = arm(config, scenario, lifecycle)
        observe(run, deliveries)
        return outcome(run, deliveries)


def run_rounds(config, scenario, lifecycle, *, at_step=None, path=None) -> dict:
    """*config* on the shared rounds, checkpointed and resumed at *at_step*."""
    deliveries: list = []
    run = arm(config, scenario, lifecycle)
    observe(run, deliveries)
    if at_step is not None:
        runner._drive(run, runner._RULES[run.mode], at_step=at_step)
        assert run.steps == at_step
        runner._write(run, path)
        run = runner._restore(path, None)
        observe(run, deliveries)
    return outcome(run, deliveries)


def assert_same(rounds: dict, oracle: dict) -> None:
    for key in oracle:
        assert rounds[key] == oracle[key], key


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
        oracle = run_oracle(config, scenario, THREE_ROUNDS_AT_20, monkeypatch)
        # Right after the first round fired, then right before each of the
        # two rounds the restarts opened.
        for at_step in (first + 1, second, third):
            assert fired[at_step - 1].t == 20.0
            assert_same(
                run_rounds(
                    config,
                    scenario,
                    THREE_ROUNDS_AT_20,
                    at_step=at_step,
                    path=str(tmp_path / f"snap-{at_step}.json"),
                ),
                oracle,
            )
