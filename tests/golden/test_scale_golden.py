"""Scale golden: a generated 300-agent tree, pinned, and the §3.1 fan-out.

Every golden trace runs the 12-agent case-study grid, so none of them
exercises advertisement at scale.  ``scenario_g300_seed2003.json`` pins
a generated 300-agent FIFO tree (branching 3, 100 Poisson requests,
periodic pull) by its completion-records digest, messages sent by kind,
events fired, agent-counter totals and RNG digest.  Regenerate it only
for a reviewed behaviour change::

    pytest tests/golden --update-golden

The fan-out test checks the paper's advertisement pattern (§3.1, §4.1):
every agent pulls each of its upper and lower agents every pull
interval, and each PULL is answered with a fresh Fig. 5 record.  On an
unchanged tree of N agents each round therefore sends 2 × (N − 1)
PULLs and as many ADVERTISEs, and the records built are the PULLs
answered plus one per routing decision.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
from collections import Counter

import pytest

from repro.agents.agent import Agent
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import ScenarioSpec, generate_scenario
from repro.net.transport import Transport

GOLDEN = pathlib.Path(__file__).parent / "scenario_g300_seed2003.json"

G300 = ScenarioSpec(
    name="g300",
    agent_count=300,
    branching=3,
    request_count=100,
    rate=1.0,
    arrival="poisson",
    master_seed=2003,
)

#: The end-to-end benchmark's ``grid1000`` input at seed 2003.
GRID1000 = ScenarioSpec(
    name="grid1000",
    agent_count=1000,
    branching=3,
    request_count=150,
    rate=1.0,
    arrival="poisson",
    master_seed=2003,
)


def observed_run(spec: ScenarioSpec, monkeypatch) -> dict:
    """Run *spec* (FIFO, periodic pull), counting sends by kind and calls."""
    sent: Counter = Counter()
    calls: Counter = Counter()
    send, pull, info = Transport.send, Agent.pull_neighbours, Agent.service_info

    def counting_send(self, message, **kwargs):
        sent[message.kind.value] += 1
        return send(self, message, **kwargs)

    def counting_pull(self):
        calls["pull_neighbours"] += 1
        return pull(self)

    def counting_info(self):
        calls["service_info"] += 1
        return info(self)

    monkeypatch.setattr(Transport, "send", counting_send)
    monkeypatch.setattr(Agent, "pull_neighbours", counting_pull)
    monkeypatch.setattr(Agent, "service_info", counting_info)
    scenario = generate_scenario(spec)
    result = run_experiment(
        spec.config(), scenario.topology, workload=list(scenario.workload)
    )
    monkeypatch.undo()
    records = json.dumps(
        [dataclasses.asdict(r) for r in result.records], sort_keys=True
    )
    totals: Counter = Counter()
    for stats in result.agent_stats.values():
        totals.update(dataclasses.asdict(stats))
    return {
        "records": len(result.records),
        "records_digest": hashlib.sha256(records.encode("utf-8")).hexdigest(),
        "messages": dict(sorted(sent.items())),
        "events": result.steps,
        "agent_stats": dict(sorted(totals.items())),
        "rng_digest": result.rng_digest,
        "calls": dict(sorted(calls.items())),
    }


def test_g300_matches_golden(monkeypatch, update_golden):
    observed = observed_run(G300, monkeypatch)
    if update_golden:
        GOLDEN.write_text(
            json.dumps(observed, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        return
    assert GOLDEN.exists(), (
        f"{GOLDEN.name} missing — generate it with `pytest tests/golden "
        "--update-golden`"
    )
    assert observed == json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("spec", [G300, GRID1000], ids=lambda s: s.name)
def test_pull_fan_out_is_the_papers(spec, monkeypatch):
    observed = observed_run(spec, monkeypatch)
    n = spec.agent_count
    messages, calls, stats = (
        observed["messages"], observed["calls"], observed["agent_stats"]
    )
    # Every agent pulls once per round; nobody died, so no send failed.
    rounds, partial = divmod(calls["pull_neighbours"], n)
    assert partial == 0 and rounds > 0
    assert stats["send_failures"] == 0
    assert messages["pull"] == rounds * 2 * (n - 1)
    assert messages["advertise"] == messages["pull"] == stats["pulls_answered"]
    # One record per PULL answered plus one per routing decision.
    assert stats["requests_seen"] == messages["request"]
    assert calls["service_info"] == stats["pulls_answered"] + stats["requests_seen"]
    if spec is GRID1000:
        assert (rounds, messages["pull"]) == (23, 45_954)
        assert (messages["request"], calls["service_info"]) == (209, 46_163)
