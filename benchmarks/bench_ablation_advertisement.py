"""Ablation — service-advertisement strategies (§3.1).

"Service information can be pushed to or pulled from other agents, a
process that is triggered by system events or through periodic updates.
Different strategies can be used ... which has an impact on the system
efficiency."  The case study uses periodic pull every 10 s; this bench
compares periodic pull, event-driven push, and no advertisement at all
under the experiment-3 configuration, reporting message cost and balancing
quality — the efficiency/ freshness trade the paper alludes to.  A second
report varies the periodic-pull cadence itself (paper: 10 s): staler
adverts for fewer messages.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments.config import table2_experiments
from repro.experiments.runner import run_experiment
from repro.utils.tables import render_table

STRATEGIES = ["pull", "push", "none"]
PULL_INTERVALS = [2.0, 10.0, 60.0]
REQUESTS = 60


def _run(strategy: str, pull_interval: float = 10.0):
    cfg = dataclasses.replace(
        table2_experiments(request_count=REQUESTS)[2],
        name=f"advert-{strategy}-{pull_interval:g}",
        advertisement=strategy,
        pull_interval=pull_interval,
    )
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def sweep():
    return {s: _run(s) for s in STRATEGIES}


def test_advertisement_report(sweep, capsys):
    rows = []
    for strategy, result in sweep.items():
        m = result.metrics.total
        forwarded = sum(s.forwarded for s in result.agent_stats.values())
        rows.append(
            [strategy, result.messages_sent, forwarded, round(m.epsilon),
             round(m.beta_percent)]
        )
    with capsys.disabled():
        print()
        print(
            render_table(
                ["strategy", "messages", "forwards", "ε (s)", "β (%)"],
                rows,
                title="Ablation: advertisement strategy (exp-3 config)",
            )
        )
    # Without advertisement agents have no neighbour information: requests
    # that cannot be met locally can only escalate blindly, so forwarding
    # still happens but dispatch quality must not beat informed pull.
    assert sweep["pull"].metrics.total.beta >= sweep["none"].metrics.total.beta - 0.05


def test_pull_interval_report(capsys):
    results = {interval: _run("pull", interval) for interval in PULL_INTERVALS}
    rows = [
        [f"{interval:g}", result.messages_sent, round(result.metrics.total.epsilon),
         round(result.metrics.total.beta_percent)]
        for interval, result in results.items()
    ]
    with capsys.disabled():
        print()
        print(
            render_table(
                ["pull interval (s)", "messages", "ε (s)", "β (%)"],
                rows,
                title="Ablation: periodic-pull cadence (exp-3 config)",
            )
        )
    # Every pull round costs a PULL and an ADVERTISE per tree edge and
    # direction, so the message count falls as the interval grows.
    messages = [results[interval].messages_sent for interval in PULL_INTERVALS]
    assert messages == sorted(messages, reverse=True)
    assert len(set(messages)) == len(messages)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_bench_strategy(benchmark, strategy):
    result = benchmark.pedantic(_run, args=(strategy,), rounds=1, iterations=1)
    assert result.metrics.total.n_tasks == REQUESTS
