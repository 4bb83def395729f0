"""Engine equivalence: the engine must fire in the seed engine's order.

:class:`~repro.sim.reference.SingleHeapEngine` is the seed implementation
kept as the correctness oracle for :class:`~repro.sim.engine.Engine`.  Two
layers of evidence here:

* **Paper-scale byte-identity** — the three Table-2 experiment configs run
  on both engines across five master seeds must agree on completion
  records, metrics JSON, and the final RNG digest, byte for byte.  The
  oracle is swapped in for the engine ``build_grid`` constructs.
* **Hypothesis-driven run() equivalence** — random scripted workloads
  (same-instant cascades scheduled from callbacks, part of them as
  zero-delay ``schedule_in`` calls that take the engine's FIFO, part of
  them carrying a callback argument, bursts of FIFO entries cancelled
  past ``COMPACT_MIN``, and a drain that mixes ``next_event_time()``,
  ``run_until()`` and chunked ``run(max_events=...)`` stopping
  mid-cascade) must produce the identical fire sequence, arguments
  included, on both engines.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.experiments.runner as runner_module
from repro.experiments.config import table2_experiments
from repro.experiments.runner import run_experiment
from repro.sim.engine import COMPACT_MIN, Engine
from repro.sim.events import Priority
from repro.sim.reference import SingleHeapEngine
from tests.oracles import (
    heap_size,
    pending,
    reference_next_event_time,
    reference_run_until,
)

SEEDS = (2003, 7, 41, 97, 1234)

PRIORITIES = (
    Priority.COMPLETION,
    Priority.ARRIVAL,
    Priority.SCHEDULING,
    Priority.DEFAULT,
)


def metrics_json(metrics) -> str:
    # NaN epsilons break dataclass equality; JSON text comparison does not.
    return json.dumps(asdict(metrics), sort_keys=True)


def records_json(result) -> str:
    return json.dumps([asdict(r) for r in result.records], sort_keys=True)


class TestPaperScaleByteIdentity:
    """Table-2 configs agree byte-for-byte on both engines, five seeds."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_table2_experiments_identical(self, seed, monkeypatch):
        for config in table2_experiments(master_seed=seed, request_count=60):
            results = {}
            for engine_type in (Engine, SingleHeapEngine):
                monkeypatch.setattr(runner_module, "Engine", engine_type)
                results[engine_type] = run_experiment(config)
            engine, single = results[Engine], results[SingleHeapEngine]
            assert records_json(engine) == records_json(single), config.name
            assert metrics_json(engine.metrics) == metrics_json(single.metrics)
            assert engine.rng_digest == single.rng_digest, config.name


class _ScriptedRun:
    """Replays one seeded random workload on an engine, logging fire order.

    Every random decision is drawn from a private ``random.Random``; the
    two engines fire callbacks in the same order iff they are equivalent,
    so the nth draw — and therefore the whole script — matches between
    them.  Each event logs its own creation index, so any two events
    fired out of order show in the log.  Callbacks schedule same-instant
    cascades, like transports do, and cancel pending events.  Three in
    ten scheduled events go through ``schedule_in``, two in three of them
    carrying an argument, as message deliveries do; each logs the
    argument it was called with next to its own index, so a dropped or
    swapped argument shows too.  Nearly half of them
    are zero-delay calls at ``Priority.DEFAULT`` (the engine's FIFO),
    mixed with heap events of the same instant and priority, and the
    rest are relative events the heap must take.  An occasional burst queues more FIFO
    entries than :data:`COMPACT_MIN` and cancels nearly all of them.
    """

    #: Hard cap on scheduled events per script — each fire spawns 0–3
    #: children (a supercritical cascade), so the budget is what drains it.
    BUDGET = 300
    #: FIFO entries one burst queues (bursts have their own budget).
    BURST = COMPACT_MIN + 24
    BURSTS = 3

    def __init__(self, engine, seed: int) -> None:
        self.engine = engine
        self.rng = random.Random(seed)
        # Drain decisions come from their own stream, drawn at the same
        # points on both engines.
        self.driver = random.Random(seed + 1)
        self.log = []
        self.peeks = []
        self.live = []
        self.budget = self.BUDGET
        self.bursts = self.BURSTS
        self.created = 0
        self.garbage_ok = True
        # The engine's bound on queued cancelled entries, as the last
        # cancel that took effect left it.
        self.garbage_bound = COMPACT_MIN

    def seed_events(self, count: int) -> None:
        for _ in range(count):
            self._schedule(self.engine.now)

    def _callback(self):
        ident = self.created
        self.created += 1
        return partial(self._fire, ident)

    def _callback_with_arg(self):
        """A callback taking one argument, and the argument it must get."""
        ident = self.created
        self.created += 1
        return partial(self._fire_with_arg, ident), ("arg", ident)

    def _schedule(self, base_time: float) -> None:
        if self.budget == 0:
            return
        self.budget -= 1
        rng = self.rng
        engine = self.engine
        label = f"ev{self.created}"
        if rng.random() < 0.3:
            # FIFO entries, and relative events the heap must take
            # (another priority, or a positive delay); two in three carry
            # an argument.
            delay = rng.choice((0.0, 0.0, 0.0, 0.25))
            priority = rng.choice((Priority.DEFAULT,) * 3 + PRIORITIES)
            if rng.random() < 0.67:
                callback, arg = self._callback_with_arg()
            else:
                callback, arg = self._callback(), None
            handle = engine.schedule_in(
                delay, callback, priority=priority, label=label, arg=arg
            )
        else:
            time = base_time + rng.choice((0.0, 0.0, 0.25, 1.0, 3.5))
            priority = rng.choice(PRIORITIES)
            handle = engine.schedule(
                time, self._callback(), priority=priority, label=label
            )
        self.live.append(handle)

    def _burst(self) -> None:
        engine = self.engine
        handles = [
            engine.schedule_in(0.0, self._callback(), priority=Priority.DEFAULT)
            for _ in range(self.BURST)
        ]
        keep = self.rng.randrange(0, 4)
        for handle in handles[keep:]:
            self._cancel(handle)
        self.live.extend(handles[:keep])

    def _cancel(self, handle) -> None:
        # Compaction runs in the cancel hook, so right after a cancel that
        # takes effect it bounds the cancelled entries still queued, FIFO
        # ones included.  Cancelling an event that already fired is a
        # no-op and leaves the last bound standing: only cancels add
        # garbage, while firing lowers the pending count under it.
        took_effect = handle.pending
        handle.cancel()
        engine = self.engine
        if isinstance(engine, Engine):
            if took_effect:
                self.garbage_bound = max(COMPACT_MIN, pending(engine))
            if heap_size(engine) - pending(engine) > self.garbage_bound:
                self.garbage_ok = False

    def _fire_with_arg(self, ident: int, arg) -> None:
        self._fire(ident, arg)

    def _fire(self, ident: int, arg=None) -> None:
        rng = self.rng
        self.log.append((self.engine.now, ident, arg))
        for _ in range(rng.randrange(0, 4)):
            self._schedule(self.engine.now)
        if self.bursts and rng.random() < 0.05:
            self.bursts -= 1
            self._burst()
        if self.live and rng.random() < 0.3:
            victim = self.live.pop(rng.randrange(len(self.live)))
            self._cancel(victim)

    def next_event_time(self):
        engine = self.engine
        if isinstance(engine, Engine):
            return engine.next_event_time()
        return reference_next_event_time(engine)

    def run_until(self, end_time: float) -> None:
        engine = self.engine
        if isinstance(engine, Engine):
            engine.run_until(end_time)
        else:
            reference_run_until(engine, end_time)

    def drain(self, chunk: int) -> None:
        # Chunked draining stops runs mid-cascade and re-enters them.
        while self.engine.run(max_events=chunk):
            pass

    def drain_mixed(self, chunk: int) -> None:
        """Drain through peeks, ``run_until`` horizons and chunked runs."""
        driver = self.driver
        while True:
            head = self.next_event_time()
            self.peeks.append(head)
            if head is None:
                return
            if driver.random() < 0.5:
                self.engine.run(max_events=chunk)
            else:
                self.run_until(head + driver.choice((0.0, 0.0, 0.25, 2.0)))


class TestScriptedRunEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        initial=st.integers(1, 12),
        chunk=st.integers(1, 50),
    )
    def test_fire_sequence_identical(self, seed, initial, chunk):
        runs = []
        for engine in (Engine(), SingleHeapEngine()):
            scripted = _ScriptedRun(engine, seed)
            scripted.seed_events(initial)
            scripted.drain(chunk)
            runs.append(scripted)
        engine, single = runs
        assert engine.log == single.log
        assert engine.engine.fired_count == single.engine.fired_count
        assert engine.engine.now == single.engine.now
        assert pending(engine.engine) == pending(single.engine) == 0
        assert engine.garbage_ok

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        initial=st.integers(1, 12),
        chunk=st.integers(1, 50),
    )
    def test_mixed_drain_identical(self, seed, initial, chunk):
        # next_event_time() and run_until() read and advance both queues.
        runs = []
        for engine in (Engine(), SingleHeapEngine()):
            scripted = _ScriptedRun(engine, seed)
            scripted.seed_events(initial)
            scripted.drain_mixed(chunk)
            runs.append(scripted)
        engine, single = runs
        assert engine.log == single.log
        assert engine.peeks == single.peeks
        assert engine.engine.fired_count == single.engine.fired_count
        assert engine.engine.now == single.engine.now
        assert pending(engine.engine) == pending(single.engine) == 0
        assert heap_size(engine.engine) == 0
        assert engine.garbage_ok

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), initial=st.integers(2, 10))
    def test_single_run_matches_chunked_run(self, seed, initial):
        # One run() call and repeated small chunks must fire identically
        # on the engine itself.
        runs = []
        for chunk in (10**9, 3):
            scripted = _ScriptedRun(Engine(), seed)
            scripted.seed_events(initial)
            scripted.drain(chunk)
            runs.append(scripted)
        assert runs[0].log == runs[1].log
