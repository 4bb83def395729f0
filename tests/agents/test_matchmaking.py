"""Tests for eq. (10) matchmaking."""

from __future__ import annotations

import pytest

from repro.agents.matchmaking import MatchResult, match_request
from repro.errors import AgentError
from repro.net.message import Endpoint
from repro.net.payloads import ServiceInfo
from repro.pace.hardware import DEFAULT_CATALOGUE
from repro.tasks.task import Environment


def make_info(hardware="SGIOrigin2000", freetime=0.0, envs=(Environment.TEST,)):
    return ServiceInfo(
        agent_endpoint=Endpoint("a.grid", 1000),
        scheduler_endpoint=Endpoint("a.grid", 10000),
        hardware_type=hardware,
        nproc=16,
        environments=tuple(envs),
        freetime=freetime,
    )


class TestMatchRequest:
    def test_idle_sgi_meets_deadline(self, evaluator, make_request):
        # sweep3d best time on 16 SGI nodes: 4 s at k=15 (tie prefers fewer).
        req = make_request("sweep3d", deadline_offset=100.0)
        match = match_request(req, make_info(), evaluator, DEFAULT_CATALOGUE, now=0.0)
        assert match.supported
        assert match.eta == pytest.approx(4.0)
        assert match.best_count == 15
        assert match.meets_deadline

    def test_freetime_shifts_eta(self, evaluator, make_request):
        req = make_request("sweep3d", deadline_offset=100.0)
        match = match_request(
            req, make_info(freetime=50.0), evaluator, DEFAULT_CATALOGUE, now=0.0
        )
        assert match.eta == pytest.approx(54.0)

    def test_stale_freetime_clamped_to_now(self, evaluator, make_request):
        req = make_request("sweep3d", deadline_offset=100.0, submit_time=200.0)
        match = match_request(
            req, make_info(freetime=50.0), evaluator, DEFAULT_CATALOGUE, now=200.0
        )
        assert match.eta == pytest.approx(204.0)

    def test_slow_platform_misses_deadline(self, evaluator, make_request):
        req = make_request("sweep3d", deadline_offset=10.0)
        match = match_request(
            req,
            make_info(hardware="SunSPARCstation2"),
            evaluator,
            DEFAULT_CATALOGUE,
            now=0.0,
        )
        assert match.supported
        assert match.eta == pytest.approx(32.0)  # 4 s × factor 8
        assert not match.meets_deadline

    def test_environment_mismatch_unsupported(self, evaluator, make_request):
        req = make_request("sweep3d", deadline_offset=100.0)
        match = match_request(
            req,
            make_info(envs=(Environment.MPI,)),
            evaluator,
            DEFAULT_CATALOGUE,
            now=0.0,
        )
        assert not match.supported
        assert match.eta == float("inf")
        assert not match.meets_deadline

    def test_unknown_hardware_rejected(self, evaluator, make_request):
        req = make_request("sweep3d", deadline_offset=100.0)
        info = make_info(hardware="SGIOrigin2000")
        object.__setattr__(info, "hardware_type", "Cray")
        with pytest.raises(AgentError):
            match_request(req, info, evaluator, DEFAULT_CATALOGUE, now=0.0)

    def test_unsupported_factory(self):
        match = MatchResult.unsupported(make_info())
        assert not match.supported
        assert match.best_count == 0
