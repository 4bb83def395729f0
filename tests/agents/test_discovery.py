"""Tests for the discovery decision procedure (§3.1)."""

from __future__ import annotations

from repro.agents.discovery import MAX_HOPS, Decision, DiscoveryConfig, discover
from repro.agents.matchmaking import MatchResult
from repro.net.message import Endpoint
from repro.net.payloads import ServiceInfo
from repro.tasks.task import Environment


def info(name: str) -> ServiceInfo:
    return ServiceInfo(
        agent_endpoint=Endpoint(name, 1000),
        scheduler_endpoint=Endpoint(name, 10000),
        hardware_type="SGIOrigin2000",
        nproc=16,
        environments=(Environment.TEST,),
        freetime=0.0,
    )


def match(name: str, eta: float, meets: bool, supported: bool = True) -> MatchResult:
    if not supported:
        return MatchResult.unsupported(info(name))
    return MatchResult(info(name), True, eta, 4, meets)


EP_B = Endpoint("b", 1000)
EP_C = Endpoint("c", 1000)
EP_PARENT = Endpoint("parent", 1000)


class TestLocalFirst:
    def test_local_meets_wins_even_if_neighbour_better(self):
        outcome = discover(
            local=match("self", eta=50.0, meets=True),
            neighbours={EP_B: match("b", eta=10.0, meets=True)},
            parent=None,
            hops=0,
        )
        assert outcome.decision is Decision.LOCAL

    def test_forward_to_best_meeting_neighbour(self):
        outcome = discover(
            local=match("self", eta=500.0, meets=False),
            neighbours={
                EP_B: match("b", eta=30.0, meets=True),
                EP_C: match("c", eta=20.0, meets=True),
            },
            parent=None,
            hops=0,
        )
        assert outcome.decision is Decision.FORWARD
        assert outcome.target == EP_C

    def test_unsupported_neighbours_ignored(self):
        outcome = discover(
            local=match("self", eta=500.0, meets=False),
            neighbours={
                EP_B: match("b", eta=1.0, meets=True, supported=False),
                EP_C: match("c", eta=20.0, meets=True),
            },
            parent=None,
            hops=0,
        )
        assert outcome.target == EP_C


class TestEscalation:
    def test_escalates_to_parent_when_nothing_meets(self):
        outcome = discover(
            local=match("self", eta=500.0, meets=False),
            neighbours={
                EP_B: match("b", eta=400.0, meets=False),
                EP_PARENT: match("parent", eta=600.0, meets=False),
            },
            parent=EP_PARENT,
            hops=0,
        )
        assert outcome.decision is Decision.FORWARD
        assert outcome.target == EP_PARENT
        assert "escalate" in outcome.reason

    def test_escalates_even_without_parent_advertisement(self):
        outcome = discover(
            local=match("self", eta=500.0, meets=False),
            neighbours={},
            parent=EP_PARENT,
            hops=0,
        )
        assert outcome.target == EP_PARENT


class TestHeadBestEffort:
    def test_best_effort_prefers_lowest_eta(self):
        outcome = discover(
            local=match("self", eta=500.0, meets=False),
            neighbours={EP_B: match("b", eta=100.0, meets=False)},
            parent=None,
            hops=0,
        )
        assert outcome.decision is Decision.FORWARD
        assert outcome.target == EP_B

    def test_best_effort_can_stay_local(self):
        outcome = discover(
            local=match("self", eta=50.0, meets=False),
            neighbours={EP_B: match("b", eta=100.0, meets=False)},
            parent=None,
            hops=0,
        )
        assert outcome.decision is Decision.LOCAL

    def test_eta_tie_local_beats_remote(self):
        # Exact ETA tie: absorbing locally spares a network hop.
        outcome = discover(
            local=match("self", eta=100.0, meets=False),
            neighbours={EP_B: match("b", eta=100.0, meets=False)},
            parent=None,
            hops=0,
        )
        assert outcome.decision is Decision.LOCAL
        assert outcome.estimate == 100.0

    def test_eta_tie_between_remotes_breaks_on_endpoint(self):
        # Remote-vs-remote tie: lowest (address, port) wins, and the
        # choice must not depend on neighbour insertion order.
        tie = {
            EP_C: match("c", eta=100.0, meets=False),
            EP_B: match("b", eta=100.0, meets=False),
        }
        for neighbours in (tie, dict(reversed(list(tie.items())))):
            outcome = discover(
                local=match("self", eta=500.0, meets=False),
                neighbours=neighbours,
                parent=None,
                hops=0,
            )
            assert outcome.decision is Decision.FORWARD
            assert outcome.target == EP_B

    def test_eta_tie_same_address_breaks_on_port(self):
        low, high = Endpoint("b", 1000), Endpoint("b", 2000)
        outcome = discover(
            local=match("self", eta=500.0, meets=False),
            neighbours={
                high: match("b", eta=100.0, meets=False),
                low: match("b", eta=100.0, meets=False),
            },
            parent=None,
            hops=0,
        )
        assert outcome.target == low

    def test_strict_mode_rejects(self):
        outcome = discover(
            local=match("self", eta=50.0, meets=False),
            neighbours={},
            parent=None,
            hops=0,
            config=DiscoveryConfig(strict=True),
        )
        assert outcome.decision is Decision.REJECT

    def test_nothing_supports_environment(self):
        outcome = discover(
            local=match("self", eta=0.0, meets=False, supported=False),
            neighbours={EP_B: match("b", eta=0.0, meets=False, supported=False)},
            parent=None,
            hops=0,
        )
        assert outcome.decision is Decision.REJECT


class TestHopBudget:
    def test_exhausted_budget_absorbs_locally(self):
        outcome = discover(
            local=match("self", eta=500.0, meets=False),
            neighbours={EP_B: match("b", eta=10.0, meets=True)},
            parent=EP_PARENT,
            hops=MAX_HOPS,
        )
        assert outcome.decision is Decision.LOCAL

    def test_exhausted_budget_unsupported_forwards_once(self):
        outcome = discover(
            local=match("self", eta=0.0, meets=False, supported=False),
            neighbours={EP_B: match("b", eta=10.0, meets=True)},
            parent=None,
            hops=MAX_HOPS,
        )
        assert outcome.decision is Decision.FORWARD
        assert outcome.target == EP_B


class TestLocalOnly:
    def test_local_only_absorbs(self):
        outcome = discover(
            local=match("self", eta=10_000.0, meets=False),
            neighbours={EP_B: match("b", eta=1.0, meets=True)},
            parent=EP_PARENT,
            hops=0,
            config=DiscoveryConfig(local_only=True),
        )
        assert outcome.decision is Decision.LOCAL
        assert "disabled" in outcome.reason

    def test_local_only_unsupported_rejects(self):
        outcome = discover(
            local=match("self", eta=0.0, meets=False, supported=False),
            neighbours={},
            parent=None,
            hops=0,
            config=DiscoveryConfig(local_only=True),
        )
        assert outcome.decision is Decision.REJECT
