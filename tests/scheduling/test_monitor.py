"""Tests for the resource monitor (availability polling, §2.2)."""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.scheduling.monitor import DEFAULT_POLL_INTERVAL, ResourceMonitor
from tests.oracles import (
    available_ids,
    is_available,
    load_tracker,
    poll_interval,
    samples,
    tracks_load,
)


class TestPolling:
    def test_paper_default_interval(self, sim):
        monitor = ResourceMonitor(sim, 4)
        assert poll_interval(monitor) == DEFAULT_POLL_INTERVAL == 300.0

    def test_periodic_polls(self, sim):
        monitor = ResourceMonitor(sim, 4, poll_interval=100.0)
        polls = []
        monitor.subscribe(lambda: polls.append(sim.now))
        monitor.start()
        sim.run_until(350.0)
        assert polls == [100.0, 200.0, 300.0]
        monitor.stop()
        sim.run_until(1000.0)
        assert len(polls) == 3

    def test_observers_fire_per_poll(self, sim):
        monitor = ResourceMonitor(sim, 2, poll_interval=10.0)
        seen = []
        monitor.subscribe(lambda: seen.append(sim.now))
        monitor.start()
        sim.run_until(25.0)
        assert seen == [10.0, 20.0]


class TestLoadTracking:
    def test_disabled_by_default(self, sim):
        monitor = ResourceMonitor(sim, 2)
        assert not tracks_load(monitor)
        assert monitor.slowdown(0) == 1.0
        with pytest.raises(ValidationError):
            load_tracker(monitor, 0)

    def test_polls_sample_load_source(self, sim):
        loads = {0: 1.0, 1: 0.0}
        monitor = ResourceMonitor(
            sim, 2, poll_interval=10.0, load_source=lambda nid: loads[nid]
        )
        monitor.start()
        sim.run_until(55.0)  # five polls
        assert tracks_load(monitor)
        assert samples(load_tracker(monitor, 0)) == 5
        assert monitor.slowdown(0) == pytest.approx(2.0, rel=0.1)
        assert monitor.slowdown(1) == pytest.approx(1.0)

    def test_down_nodes_not_sampled(self, sim):
        monitor = ResourceMonitor(
            sim, 2, poll_interval=10.0, load_source=lambda nid: 1.0
        )
        monitor.mark_down(1)
        monitor.start()
        sim.run_until(35.0)
        assert samples(load_tracker(monitor, 0)) == 3
        assert samples(load_tracker(monitor, 1)) == 0

    def test_forecast_adapts_to_load_change(self, sim):
        level = {"value": 0.0}
        monitor = ResourceMonitor(
            sim, 1, poll_interval=1.0, load_source=lambda nid: level["value"]
        )
        monitor.start()
        sim.run_until(20.0)
        assert monitor.slowdown(0) == pytest.approx(1.0)
        level["value"] = 3.0
        sim.run_until(60.0)
        assert monitor.slowdown(0) == pytest.approx(4.0, rel=0.1)


class TestFailureVisibility:
    def test_all_up_initially(self, sim):
        monitor = ResourceMonitor(sim, 3)
        assert available_ids(monitor) == [0, 1, 2]
        assert monitor.unavailable_ids() == []

    def test_crash_invisible_until_poll(self, sim):
        monitor = ResourceMonitor(sim, 3, poll_interval=10.0)
        monitor.start()
        monitor.mark_down(1)
        assert is_available(monitor, 1)  # not yet observed
        sim.run_until(10.0)
        assert not is_available(monitor, 1)
        assert monitor.unavailable_ids() == [1]

    def test_immediate_flag_forces_poll(self, sim):
        monitor = ResourceMonitor(sim, 3)
        monitor.mark_down(2, immediate=True)
        assert not is_available(monitor, 2)

    def test_recovery(self, sim):
        monitor = ResourceMonitor(sim, 3)
        monitor.mark_down(0, immediate=True)
        monitor.mark_up(0, immediate=True)
        assert is_available(monitor, 0)

    def test_bad_node_rejected(self, sim):
        monitor = ResourceMonitor(sim, 3)
        with pytest.raises(ValidationError):
            monitor.mark_down(3)
        with pytest.raises(ValidationError):
            is_available(monitor, -1)

    def test_zero_nodes_rejected(self, sim):
        with pytest.raises(ValidationError):
            ResourceMonitor(sim, 0)
