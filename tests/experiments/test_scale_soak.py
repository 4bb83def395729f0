"""Scale-tier soak acceptance: big generated grids, invariant checker clean.

The always-on test soaks a mid-size generated scenario (300 agents) with
tracing and proves the trace invariant checker finds nothing.  The full
acceptance soak — 1000 agents, 100 000 requests — runs only when
``REPRO_SCALE_SOAK=1`` is exported (≈20 minutes of wall time); CI's
scale-smoke job and local acceptance runs opt in explicitly.

Tracing every engine event of a 100k-request soak would hold millions of
records; :class:`_CheckingSink` retains only the semantic record kinds
:func:`~repro.obs.check.check_trace` consumes and proves clock
monotonicity on the fly for the rest, so memory stays bounded by the
request count, not the event count.
"""

from __future__ import annotations

import os

import pytest

import repro.net.message as message_module
from repro.experiments.scenarios import ScenarioSpec, generate_scenario
from repro.experiments.runner import run_soak
from repro.obs.check import check_trace
from repro.obs.trace import Tracer
from repro.obs.records import (
    AckSent,
    AgentDown,
    AgentUp,
    EvolveStep,
    MessageSent,
    PortalResult,
    TaskCompleted,
    TaskDispatched,
    TaskQueued,
)
from repro.obs.trace import TraceSink
from repro.scheduling.scheduler import SchedulingPolicy

#: Record kinds check_trace actually consumes (everything else only
#: participates in the clock-monotone rule, proven inline).  Derived from
#: the record classes so a renamed kind cannot silently hollow the test.
_CHECKED_KINDS = frozenset(
    cls.kind
    for cls in (
        AckSent, AgentDown, AgentUp, EvolveStep, MessageSent,
        PortalResult, TaskCompleted, TaskDispatched, TaskQueued,
    )
)


class _CheckingSink(TraceSink):
    """Keeps only checker-relevant records; asserts time never rewinds."""

    def __init__(self) -> None:
        self.records = []
        self.emitted = 0
        self.max_t = float("-inf")

    def emit(self, record) -> None:
        self.emitted += 1
        assert record.t >= self.max_t, (
            f"clock went backwards: {record.kind} at t={record.t} "
            f"after t={self.max_t}"
        )
        self.max_t = record.t
        if record.kind in _CHECKED_KINDS:
            self.records.append(record)


def _soak_scenario(agents: int, requests: int, seed: int) -> tuple:
    spec = ScenarioSpec(
        name=f"soak-{agents}",
        agent_count=agents,
        request_count=requests,
        rate=5.0,
        arrival="mmpp",
        master_seed=seed,
    )
    scenario = generate_scenario(spec)
    config = spec.config(policy=SchedulingPolicy.FIFO)
    return scenario, config


def _run_checked_soak(agents: int, requests: int, seed: int = 2003):
    scenario, config = _soak_scenario(agents, requests, seed)
    sink = _CheckingSink()
    message_module.set_message_counter(0)
    result = run_soak(
        config,
        scenario.topology,
        workload=list(scenario.workload),
        window_seconds=scenario.horizon / 8,
        tracer=Tracer(sink),
    )
    violations = check_trace(sink.records)
    assert violations == [], violations[:5]
    assert result.total_completed + result.total_failed == requests
    assert sink.emitted > len(sink.records)  # the filter actually filters
    return result


class TestScaleSoak:
    def test_300_agent_soak_checker_clean(self):
        result = _run_checked_soak(agents=300, requests=400)
        assert len(result.windows) >= 8
        assert result.total_completed > 0

    @pytest.mark.skipif(
        os.environ.get("REPRO_SCALE_SOAK") != "1",
        reason="acceptance soak (~20 min); export REPRO_SCALE_SOAK=1",
    )
    def test_1000_agent_100k_soak_checker_clean(self):
        result = _run_checked_soak(agents=1000, requests=100_000)
        assert result.total_completed + result.total_failed == 100_000
