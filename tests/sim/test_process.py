"""Tests for periodic and delayed processes."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError, ValidationError
from repro.sim.process import PeriodicProcess
from tests.oracles import delayed, interval, pending


class TestPeriodicProcess:
    def test_fires_at_interval(self, sim):
        times = []
        proc = PeriodicProcess(sim, 10.0, lambda: times.append(sim.now))
        proc.start()
        sim.run_until(35.0)
        assert times == [10.0, 20.0, 30.0]

    def test_fire_immediately(self, sim):
        times = []
        proc = PeriodicProcess(
            sim, 10.0, lambda: times.append(sim.now), fire_immediately=True
        )
        proc.start()
        sim.run_until(25.0)
        assert times == [0.0, 10.0, 20.0]

    def test_stop_cancels_pending(self, sim):
        times = []
        proc = PeriodicProcess(sim, 10.0, lambda: times.append(sim.now))
        proc.start()
        sim.run_until(15.0)
        proc.stop()
        sim.run_until(100.0)
        assert times == [10.0]
        assert not proc.running

    def test_start_idempotent(self, sim):
        times = []
        proc = PeriodicProcess(sim, 5.0, lambda: times.append(sim.now))
        proc.start()
        proc.start()
        sim.run_until(6.0)
        assert times == [5.0]

    def test_callback_may_stop_process(self, sim):
        calls = []

        def once() -> None:
            calls.append(sim.now)
            proc.stop()

        proc = PeriodicProcess(sim, 5.0, once)
        proc.start()
        sim.run_until(100.0)
        assert calls == [5.0]
        assert pending(sim) == 0

    def test_zero_interval_rejected(self, sim):
        with pytest.raises(ValidationError):
            PeriodicProcess(sim, 0.0, lambda: None)

    def test_interval_property(self, sim):
        assert interval(PeriodicProcess(sim, 2.5, lambda: None)) == 2.5


class TestDelayed:
    def test_fires_once(self, sim):
        fired = []
        delayed(sim, 7.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [7.0]

    def test_cancel(self, sim):
        fired = []
        handle = delayed(sim, 7.0, lambda: fired.append(sim.now))
        handle.cancel()
        sim.run()
        assert fired == []

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            delayed(sim, -1.0, lambda: None)
