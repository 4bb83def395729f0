"""Property: tracing is observationally free — on or off, same experiment.

The observability layer promises *zero overhead when off* and *zero
interference when on*: every emission site is gated on ``tracer is not
None``, record construction draws from no RNG stream, and the eq. (8)
recomputation behind ``sched.cost`` is a pure function.  So running the
same seeded experiment with a memory-sink tracer attached must reproduce
the untraced run exactly — completion records, §3.3 metrics, message
counts, agent counters, and (the strongest witness) the digest over every
named RNG stream's terminal state.  Any hidden draw or mutation inside a
tracing branch breaks the digest for some seed.

Mirrors ``test_fault_defaults.py``, which makes the same argument for the
robustness layer's defaults.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments.config import table2_experiments
from repro.experiments.runner import run_experiment
from repro.obs.metrics import MetricsRegistry
from repro.obs.records import canonical_lines
from repro.obs.trace import MemorySink, Tracer

SEEDS = (2003, 7, 41, 97, 1234)
REQUESTS = 12


@pytest.fixture(scope="module", params=SEEDS)
def triple(request):
    """(untraced run, traced run, traced run's tracer) for one seed."""
    config = table2_experiments(
        master_seed=request.param, request_count=REQUESTS
    )[2]
    untraced = run_experiment(config)
    tracer = Tracer(MemorySink(), metrics=MetricsRegistry())
    traced = run_experiment(config, tracer=tracer)
    return untraced, traced, tracer


class TestTracingIsObservationallyFree:
    def test_completion_records_identical(self, triple):
        untraced, traced, _ = triple
        assert untraced.records == traced.records

    def test_metrics_identical(self, triple):
        untraced, traced, _ = triple

        def same(a, b):
            # Bitwise equality, except idle resources whose ε is NaN in both.
            ta, tb = dataclasses.astuple(a), dataclasses.astuple(b)
            return all(x == y or (x != x and y != y) for x, y in zip(ta, tb))

        assert set(untraced.metrics.per_resource) == set(traced.metrics.per_resource)
        for name, metrics in untraced.metrics.per_resource.items():
            assert same(metrics, traced.metrics.per_resource[name]), name
        assert same(untraced.metrics.total, traced.metrics.total)
        assert untraced.metrics.horizon == traced.metrics.horizon

    def test_message_counts_identical(self, triple):
        untraced, traced, _ = triple
        assert untraced.messages_sent == traced.messages_sent
        assert untraced.messages_delivered == traced.messages_delivered

    def test_agent_stats_identical(self, triple):
        untraced, traced, _ = triple
        assert untraced.agent_stats == traced.agent_stats

    def test_rng_digest_identical(self, triple):
        """The strongest witness: every RNG stream ends in the same state."""
        untraced, traced, _ = triple
        assert untraced.rng_digest
        assert untraced.rng_digest == traced.rng_digest

    def test_trace_is_nonempty_and_metered(self, triple):
        _, _, tracer = triple
        assert len(tracer.records) > 0
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["records.portal.submit"] == REQUESTS
        assert counters["records.portal.result"] == REQUESTS
        assert sum(
            count for name, count in counters.items()
            if name.startswith("records.")
        ) == len(tracer.records)


class TestTraceIsDeterministic:
    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_same_seed_same_canonical_trace(self, seed):
        """Two traced runs of one config produce byte-identical traces."""

        def trace_once():
            config = table2_experiments(
                master_seed=seed, request_count=REQUESTS
            )[2]
            tracer = Tracer(MemorySink())
            run_experiment(config, tracer=tracer)
            return canonical_lines(tracer.records)

        assert trace_once() == trace_once()
