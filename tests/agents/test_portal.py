"""Tests for the user portal."""

from __future__ import annotations

import pytest

from repro.agents.portal import UserPortal
from repro.errors import AgentError
from repro.net.message import Endpoint, Message, MessageKind
from repro.net.transport import Transport
from repro.net.xmlio import parse_request
from repro.sim.engine import Engine
from repro.tasks.task import Environment
from tests.oracles import advance_time, submitted


class TestSubmission:
    def test_request_ids_monotone(self, grid, specs):
        a = grid.portal.submit(
            grid.agents["A1"], specs["fft"].model, Environment.TEST, 100.0
        )
        b = grid.portal.submit(
            grid.agents["A2"], specs["fft"].model, Environment.TEST, 100.0
        )
        assert (a, b) == (0, 1)
        assert grid.portal.submitted_count == 2

    def test_pending_until_result(self, grid, specs):
        rid = grid.portal.submit(
            grid.agents["A1"], specs["closure"].model, Environment.TEST, 100.0
        )
        assert grid.portal.pending_count == 1
        assert grid.portal.result(rid) is None
        grid.drain()
        assert grid.portal.pending_count == 0
        assert grid.portal.result(rid).success

    def test_envelope_lookup(self, grid, specs):
        rid = grid.portal.submit(
            grid.agents["A1"], specs["fft"].model, Environment.TEST, 100.0
        )
        env = grid.portal.envelope(rid)
        assert env.request.application.name == "fft"
        assert env.request.origin == "A1"
        with pytest.raises(AgentError):
            grid.portal.envelope(42)

    def test_successes_and_failures(self, strict_grid, sim, specs):
        sim.run_until(1.0)
        ok = strict_grid.portal.submit(
            strict_grid.agents["A1"], specs["closure"].model, Environment.TEST,
            sim.now + 100.0,
        )
        bad = strict_grid.portal.submit(
            strict_grid.agents["A1"], specs["sweep3d"].model, Environment.TEST,
            sim.now + 0.5,
        )
        strict_grid.drain()
        assert {r.request_id for r in strict_grid.portal.successes()} == {ok}
        assert {r.request_id for r in strict_grid.portal.failures()} == {bad}


class TestRequestDocument:
    def test_fig6_document(self, grid, specs):
        rid = grid.portal.submit(
            grid.agents["A1"], specs["sweep3d"].model, Environment.TEST, 100.0
        )
        doc = grid.portal.request_document(rid)
        fields = parse_request(doc)
        assert fields["name"] == "sweep3d"
        assert fields["environment"] == "test"
        assert fields["deadline"] == 100.0


class TestResultContents:
    def test_result_timing_fields(self, grid, sim, specs):
        sim.run_until(2.0)
        rid = grid.portal.submit(
            grid.agents["A2"], specs["closure"].model, Environment.TEST,
            sim.now + 50.0,
        )
        grid.drain()
        result = grid.portal.result(rid)
        assert result.submit_time == 2.0
        assert result.completion_time > result.start_time >= 2.0
        assert result.met_deadline
        assert advance_time(result) == pytest.approx(
            result.deadline - result.completion_time
        )


class TestProgressCounters:
    """``submitted_count`` and ``pending_count`` are counters the portal
    keeps; they must always equal what the submitted and result maps
    say, whatever order results arrive in."""

    @staticmethod
    def assert_consistent(portal):
        assert portal.submitted_count == len(submitted(portal))
        assert portal.pending_count == portal.submitted_count - len(portal.results)

    def test_counters_follow_the_maps(self, grid, sim, specs):
        portal = grid.portal
        self.assert_consistent(portal)
        done = portal.submit(
            grid.agents["A1"], specs["closure"].model, Environment.TEST, 100.0
        )
        self.assert_consistent(portal)
        grid.drain()
        self.assert_consistent(portal)
        assert (portal.submitted_count, portal.pending_count) == (1, 0)

        # At-least-once delivery: the same result arrives twice.
        grid.transport.send(
            Message(
                MessageKind.RESULT,
                grid.agents["A1"].endpoint,
                portal.endpoint,
                payload=portal.result(done),
            )
        )
        sim.step()
        assert portal.stats.duplicate_results == 1
        self.assert_consistent(portal)
        assert portal.pending_count == 0

        # A routing failure resolves a request before its real result,
        # which then upgrades it: resolved once, counted once.
        late = portal.submit(
            grid.agents["A2"], specs["closure"].model, Environment.TEST,
            sim.now + 100.0,
        )
        self.assert_consistent(portal)
        assert portal.pending_count == 1
        portal._record_result(portal._failure_result(late), synthetic=True)
        self.assert_consistent(portal)
        assert portal.pending_count == 0
        for _ in range(100_000):
            if portal.result(late).success:
                break
            assert sim.step()
        assert portal.result(late).success
        assert portal.stats.duplicate_results == 2
        self.assert_consistent(portal)

        # One more in flight, then the whole portal is restored elsewhere.
        portal.submit(
            grid.agents["A3"], specs["closure"].model, Environment.TEST,
            sim.now + 500.0,
        )
        self.assert_consistent(portal)
        state = portal.snapshot_state()
        engine = Engine()
        engine.restore_state(grid.sim.snapshot_state())
        restored = UserPortal(
            Transport(engine), engine, endpoint=Endpoint("portal.copy", 8001)
        )
        restored.restore_state(
            state, applications={name: spec.model for name, spec in specs.items()}
        )
        self.assert_consistent(restored)
        assert (restored.submitted_count, restored.pending_count) == (
            portal.submitted_count,
            portal.pending_count,
        ) == (3, 1)
