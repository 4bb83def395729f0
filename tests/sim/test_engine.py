"""Tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.net.message import Endpoint, Message, MessageKind
from repro.sim.engine import COMPACT_MIN, Engine
from repro.sim.events import Event, Priority
from repro.sim.reference import SingleHeapEngine
from tests.oracles import heap_size, pending, reset


class TestScheduling:
    def test_fires_in_time_order(self, sim):
        fired = []
        sim.schedule(5.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.run()
        assert fired == ["a", "b"]

    def test_clock_advances_to_event_time(self, sim):
        times = []
        sim.schedule(3.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [3.5]
        assert sim.now == 3.5

    def test_past_event_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule(1.0, lambda: None)

    def test_same_time_insertion_order(self, sim):
        fired = []
        for name in "abc":
            sim.schedule(1.0, lambda n=name: fired.append(n))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_priority_orders_simultaneous_events(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append("arrival"), priority=Priority.ARRIVAL)
        sim.schedule(
            1.0, lambda: fired.append("completion"), priority=Priority.COMPLETION
        )
        sim.run()
        assert fired == ["completion", "arrival"]

    def test_schedule_in(self, sim):
        sim.schedule(2.0, lambda: None)
        sim.run()
        fired = []
        sim.schedule_in(3.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule_in(-1.0, lambda: None)

    def test_callback_can_schedule_at_current_instant(self, sim):
        fired = []
        sim.schedule(1.0, lambda: sim.schedule(sim.now, lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [1.0]


NAN = float("nan")


class TestNaNRejected:
    """A NaN time compares false both ways: every guard must refuse it.

    Queued, events at 5.0, NaN, 1.0 and 3.0 would fire as 1.0, 3.0, NaN,
    5.0, and the clock would read NaN before the last one.
    """

    def test_schedule(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(NAN, lambda: None)
        assert pending(sim) == 0

    def test_schedule_in(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule_in(NAN, lambda: None)
        assert pending(sim) == 0

    def test_restore_event(self, sim):
        sim.restore_state({"now": 0.0, "start_time": 0.0, "sequence": 5, "fired": 0})
        descriptor = {"time": NAN, "priority": 50, "sequence": 1, "label": ""}
        with pytest.raises(SimulationError):
            sim.restore_event(descriptor, lambda: None)
        assert pending(sim) == 0

    def test_run_until(self, sim):
        fired = []
        sim.schedule(5.0, lambda: fired.append(5.0))
        with pytest.raises(SimulationError):
            sim.run_until(NAN)
        assert fired == [] and sim.now == 0.0

    def test_single_heap_schedule(self):
        with pytest.raises(SimulationError):
            SingleHeapEngine().schedule(NAN, lambda: None)

    def test_single_heap_schedule_in(self):
        with pytest.raises(SimulationError):
            SingleHeapEngine().schedule_in(NAN, lambda: None)


class TestCallbackArgument:
    @pytest.mark.parametrize("engine_type", [Engine, SingleHeapEngine])
    def test_event_fires_callback_with_its_argument(self, engine_type):
        engine = engine_type()
        fired = []
        engine.schedule_in(1.0, fired.append, arg="heap")
        engine.schedule_in(0.0, fired.append, arg="fifo")
        engine.schedule_in(2.0, fired.append, arg="later")
        engine.schedule_in(0.0, lambda: fired.append("none"))
        engine.run()
        assert fired == ["fifo", "none", "heap", "later"]

    def test_restored_event_keeps_its_argument(self, sim):
        state = sim.snapshot_state()
        event = sim.schedule_in(0.0, print, arg="x")
        descriptor = event.descriptor()
        sim.restore_state(dict(state, sequence=1))
        fired = []
        restored = sim.restore_event(descriptor, fired.append, arg="x")
        assert restored.arg == "x"
        sim.run()
        assert fired == ["x"]

    def test_queued_exposes_arguments_of_both_queues(self, sim):
        sim.schedule_in(3.0, lambda _: None, arg=1)
        sim.schedule_in(0.0, lambda _: None, arg=2)
        assert sorted(event.arg for event in sim.queued()) == [1, 2]


class TestCancellation:
    def test_cancelled_event_skipped(self, sim):
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(1))
        handle.cancel()
        sim.run()
        assert fired == []
        assert handle.cancelled

    def test_pending_excludes_cancelled(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert pending(sim) == 2
        handle.cancel()
        assert pending(sim) == 1


class TestRunModes:
    def test_run_until_stops_at_horizon(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run_until(5.0)
        assert fired == [1]
        assert sim.now == 5.0
        sim.run()
        assert fired == [1, 10]

    def test_run_until_past_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.run_until(1.0)

    def test_run_max_events(self, sim):
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda: None)
        assert sim.run(max_events=2) == 2
        assert pending(sim) == 1

    @pytest.mark.parametrize("engine_type", [Engine, SingleHeapEngine])
    def test_max_events_limit_checked_before_firing(self, engine_type):
        engine = engine_type()
        fired = []
        for t in (1.0, 2.0, 3.0):
            engine.schedule(t, lambda t=t: fired.append(t))
        assert engine.run(max_events=0) == 0
        assert fired == [] and pending(engine) == 3
        assert engine.run(max_events=2) == 2
        assert fired == [1.0, 2.0] and pending(engine) == 1

    def test_step_returns_false_when_empty(self, sim):
        assert sim.step() is False

    def test_fired_count(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.fired_count == 2

    def test_reentrant_run_rejected(self, sim):
        def reenter():
            sim.run()

        sim.schedule(1.0, reenter)
        with pytest.raises(SimulationError):
            sim.run()

    def test_next_event_time(self, sim):
        assert sim.next_event_time() is None
        sim.schedule(4.0, lambda: None)
        assert sim.next_event_time() == 4.0

    def test_start_time(self):
        eng = Engine(start_time=100.0)
        assert eng.now == 100.0
        with pytest.raises(SimulationError):
            eng.schedule(99.0, lambda: None)

    def test_reset_empties_the_heap(self, sim):
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda: None)
        sim.schedule(4.0, lambda: None).cancel()
        sim.schedule_in(0.0, lambda: None)
        sim.schedule_in(0.0, lambda: None).cancel()
        reset(sim)
        assert heap_size(sim) == 0
        assert pending(sim) == 0
        for t in (1.0, 2.0):
            sim.schedule(t, lambda: None)
        assert sim.run() == 2


class TestZeroDelayFifo:
    """``schedule_in(0.0, …)`` at DEFAULT priority, a same-instant
    delivery's call, fires first in, first out among events of its key:
    the single heap's order."""

    def test_fires_in_key_order_with_same_instant_heap_events(self, sim):
        fired = []

        def log(name):
            return lambda: fired.append(name)

        sim.schedule(0.0, log("heap-default-1"))
        sim.schedule_in(0.0, log("fifo-1"))
        sim.schedule_in(0.0, log("heap-completion"), priority=Priority.COMPLETION)
        sim.schedule(0.0, log("heap-default-2"))
        sim.schedule_in(0.0, log("fifo-2"))
        sim.schedule_in(0.5, log("heap-later"))
        sim.run()
        assert fired == [
            "heap-completion",
            "heap-default-1",
            "fifo-1",
            "heap-default-2",
            "fifo-2",
            "heap-later",
        ]

    def test_cascade_from_callbacks(self, sim):
        fired = []

        def parent():
            fired.append(("parent", sim.now))
            sim.schedule_in(0.0, lambda: fired.append(("child", sim.now)))
            sim.schedule(sim.now, lambda: fired.append(("sibling", sim.now)))

        sim.schedule(2.0, parent)
        sim.schedule(2.0, lambda: fired.append(("queued", sim.now)))
        sim.run()
        assert fired == [
            ("parent", 2.0),
            ("queued", 2.0),
            ("child", 2.0),
            ("sibling", 2.0),
        ]

    def test_next_event_time_sees_the_fifo(self, sim):
        sim.schedule(4.0, lambda: None)
        handle = sim.schedule_in(0.0, lambda: None)
        assert sim.next_event_time() == 0.0
        handle.cancel()
        assert sim.next_event_time() == 4.0
        assert heap_size(sim) == 1

    def test_run_until_fires_the_fifo(self, sim):
        fired = []
        sim.schedule(1.0, lambda: sim.schedule_in(0.0, lambda: fired.append(sim.now)))
        sim.run_until(1.0)
        assert fired == [1.0]
        assert heap_size(sim) == 0

    def test_queued_lists_live_events_of_both_queues(self, sim):
        heap_event = sim.schedule(3.0, lambda: None)
        fifo_event = sim.schedule_in(0.0, lambda: None)
        sim.schedule_in(0.0, lambda: None).cancel()
        assert {*sim.queued()} == {heap_event, fifo_event}

    def test_restore_state_discards_the_fifo(self, sim):
        state = sim.snapshot_state()
        sim.schedule_in(0.0, lambda: None)
        sim.restore_state(state)
        assert heap_size(sim) == 0
        assert pending(sim) == 0
        assert sim.run() == 0


class TestCompaction:
    def test_schedule_cancel_loop_keeps_heap_bounded(self, sim):
        # The lazy-delete regression: cancelled events must not pile up.
        # Without compaction this loop leaves ~10k garbage entries.
        live = sim.schedule(1000.0, lambda: None)
        for _ in range(100):
            handles = [sim.schedule(500.0, lambda: None) for _ in range(100)]
            for handle in handles:
                handle.cancel()
            assert heap_size(sim) <= 2 * COMPACT_MIN + pending(sim)
        assert pending(sim) == 1
        assert not live.cancelled

    def test_compaction_preserves_order_and_events(self, sim):
        fired = []
        for t in (5.0, 3.0, 4.0, 1.0, 2.0):
            sim.schedule(t, lambda t=t: fired.append(t))
        for _ in range(3 * COMPACT_MIN):
            sim.schedule(999.0, lambda: None).cancel()
        assert heap_size(sim) < COMPACT_MIN + pending(sim)
        sim.run()
        assert fired == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_fifo_cancel_loop_keeps_queue_bounded(self, sim):
        live = sim.schedule_in(0.0, lambda: None)
        for _ in range(100):
            handles = [sim.schedule_in(0.0, lambda: None) for _ in range(100)]
            for handle in handles:
                handle.cancel()
            assert heap_size(sim) <= 2 * COMPACT_MIN + pending(sim)
        assert pending(sim) == 1
        assert not live.cancelled
        assert sim.run() == 1

    def test_cancel_of_fired_event_is_not_garbage(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        handle.cancel()  # no-op: already fired
        assert pending(sim) == 0
        assert heap_size(sim) == 0


class TestSlots:
    @pytest.mark.parametrize("obj", [
        Event(1.0, 50, 0, lambda: None),
        Message(MessageKind.REQUEST, Endpoint("a", 1), Endpoint("b", 2), None),
        Endpoint("a", 1),
    ], ids=["Event", "Message", "Endpoint"])
    def test_hot_path_objects_have_no_dict(self, obj):
        assert not hasattr(obj, "__dict__")
        # Slotted and tuple-backed classes raise AttributeError; a frozen
        # slotted dataclass would raise TypeError on 3.11.  Either way the
        # write must fail.
        with pytest.raises((AttributeError, TypeError)):
            obj.arbitrary_new_attribute = 1
