"""The invariant checker over live traces from full-system runs.

Synthetic traces (``test_check.py``) prove each rule fires; this module
proves the rules are *quiet* on real executions — clean and degraded —
so a violation in CI always means a genuine regression, never checker
noise.  The traced runs double as integration coverage for every
emission site at once.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import table2_experiments
from repro.experiments.experiment4 import (
    degradation_config,
    experiment4_base_config,
)
from repro.experiments.runner import run_degraded, run_experiment
from repro.obs.check import check_trace
from repro.obs.spans import build_request_spans
from repro.obs.trace import MemorySink, Tracer
from tests.oracles import resolved

REQUESTS = 12
SEED = 2003


@pytest.fixture(scope="module")
def clean_trace():
    """Experiment 3 (GA + agents), no faults: the richest clean trace."""
    tracer = Tracer(MemorySink())
    config = table2_experiments(master_seed=SEED, request_count=REQUESTS)[2]
    result = run_experiment(config, tracer=tracer)
    return tracer.records, result


@pytest.fixture(scope="module")
def degraded_trace():
    """A faulty experiment-4 cell: loss + churn with the resilient protocol."""
    tracer = Tracer(MemorySink())
    config = degradation_config(
        experiment4_base_config(master_seed=SEED, request_count=REQUESTS),
        loss=0.2,
        churn_rate=0.25,
        resilient=True,
    )
    run = run_degraded(config, tracer=tracer)
    return tracer.records, run


class TestCleanRunInvariants:
    def test_no_violations(self, clean_trace):
        records, _ = clean_trace
        assert check_trace(records) == []

    def test_every_request_has_a_complete_span(self, clean_trace):
        records, _ = clean_trace
        spans = build_request_spans(records)
        assert len(spans) == REQUESTS
        for span in spans.values():
            assert resolved(span), span.request_id
            assert span.locals, span.request_id
            assert span.dispatched, span.request_id
            assert span.completed, span.request_id

    def test_trace_covers_every_layer(self, clean_trace):
        records, _ = clean_trace
        kinds = {r.kind for r in records}
        assert {"sim.event", "net.send", "net.deliver", "agent.discovery",
                "agent.local", "portal.submit", "portal.result", "sched.queue",
                "sched.dispatch", "sched.cost", "sched.complete",
                "ga.evolve"} <= kinds


class TestDegradedRunInvariants:
    def test_no_violations(self, degraded_trace):
        records, _ = degraded_trace
        assert check_trace(records) == []

    def test_faults_are_attributed(self, degraded_trace):
        records, run = degraded_trace
        drops = [r for r in records if r.kind == "net.drop"]
        assert drops, "a 20% loss run must drop messages"
        assert all(r.reason in {"loss", "partition", "jitter", "unregistered"}
                   for r in drops)
        assert len([r for r in drops if r.reason != "unregistered"]) == \
            run.fault_dropped

    def test_churn_is_recorded(self, degraded_trace):
        records, run = degraded_trace
        downs = [r for r in records if r.kind == "agent.down"]
        ups = [r for r in records if r.kind == "agent.up"]
        assert len(downs) == run.crashes
        assert len(ups) == run.restarts
