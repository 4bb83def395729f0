"""Tests for the user portal."""

from __future__ import annotations

import pytest

from repro.errors import AgentError
from repro.net.xmlio import parse_request
from repro.tasks.task import Environment
from tests.oracles import advance_time


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
