"""Tests for the pluggable global-policy layer (auction & reservation).

The byte-identity of the default (``eq10``) policy lives in
``tests/properties/test_policy_defaults.py``; this file covers the
policy machinery itself — config validation, the factory, deterministic
tie-breaking, the protocol state machines, and the churn regression: a
deactivated agent must drop every open auction and booked window so its
next incarnation honours nothing from the previous one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.agents.advertisement import PullRounds
from repro.agents.agent import Agent
from repro.agents.hierarchy import wire_hierarchy
from repro.agents.auction import AuctionPolicy, _candidate_key
from repro.agents.policy import (
    POLICY_KINDS,
    Eq10Policy,
    GlobalPolicyConfig,
)
from repro.agents.reservation import ReservationPolicy
from repro.agents.portal import UserPortal
from repro.errors import ValidationError
from repro.net.message import Endpoint, Message, MessageKind
from repro.net.payloads import BidInfo, RequestEnvelope, ReservationGrant
from repro.net.transport import Transport
from repro.pace.evaluation import EvaluationEngine
from repro.pace.hardware import SGI_ORIGIN_2000, SUN_SPARC_STATION_2
from repro.pace.resource import ResourceModel
from repro.scheduling.scheduler import LocalScheduler, SchedulingPolicy
from repro.tasks.task import Environment, TaskRequest
from tests.oracles import bookings, open_auctions, pending_reservations, policy


class PolicyGrid:
    """Head A1 (fast) with children A2 (fast) and A3 (slow), policy-driven."""

    def __init__(self, sim, *, policy: GlobalPolicyConfig):
        self.sim = sim
        self.transport = Transport(sim)
        self.evaluator = EvaluationEngine()
        platforms = {
            "A1": SGI_ORIGIN_2000,
            "A2": SGI_ORIGIN_2000,
            "A3": SUN_SPARC_STATION_2,
        }
        self.schedulers = {}
        rounds = PullRounds(sim, self.transport, 10.0)
        agents = {}
        for i, (name, platform) in enumerate(platforms.items()):
            scheduler = LocalScheduler(
                sim,
                ResourceModel.homogeneous(name, platform, 4),
                self.evaluator,
                policy=SchedulingPolicy.GA,
                rng=np.random.default_rng(100 + i),
                generations_per_event=5,
            )
            self.schedulers[name] = scheduler
            agents[name] = Agent(
                name,
                Endpoint(f"{name.lower()}.grid", 1000 + i),
                scheduler,
                self.transport,
                advertisement=rounds,
                global_policy=policy,
            )
        self.agents = agents
        self.hierarchy = wire_hierarchy(
            agents, {"A1": None, "A2": "A1", "A3": "A1"}
        )
        self.portal = UserPortal(self.transport, sim)
        self.hierarchy.start_all()

    def run_for(self, seconds: float) -> None:
        self.sim.run_until(self.sim.now + seconds)


def make_grid(sim, kind: str, **knobs) -> PolicyGrid:
    return PolicyGrid(sim, policy=GlobalPolicyConfig(kind=kind, **knobs))


def envelope_for(specs, sim, *, request_id: int, deadline: float):
    return RequestEnvelope(
        request_id=request_id,
        request=TaskRequest(
            application=specs["sweep3d"].model,
            environment=Environment.TEST,
            deadline=deadline,
            submit_time=sim.now,
        ),
        reply_to=Endpoint("portal.test", 9000),
    )


class TestGlobalPolicyConfig:
    def test_defaults(self):
        cfg = GlobalPolicyConfig()
        assert cfg.kind == "eq10"
        assert cfg.bid_timeout > 0 and cfg.reservation_timeout > 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            GlobalPolicyConfig(kind="dutch-auction")

    @pytest.mark.parametrize("knob", ["bid_timeout", "reservation_timeout"])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_timeouts_must_be_positive(self, knob, value):
        with pytest.raises(ValidationError):
            GlobalPolicyConfig(**{knob: value})


class TestFactory:
    @pytest.mark.parametrize(
        "kind,cls",
        [
            ("eq10", Eq10Policy),
            ("auction", AuctionPolicy),
            ("reservation", ReservationPolicy),
        ],
    )
    def test_make_policy(self, sim, kind, cls):
        grid = make_grid(sim, kind)
        agent = grid.agents["A1"]
        assert type(policy(agent)) is cls
        assert policy(agent).kind == kind
        assert policy(agent).agent is agent

    def test_every_registered_kind_constructs(self, sim):
        for kind in POLICY_KINDS:
            grid = PolicyGrid(sim, policy=GlobalPolicyConfig(kind=kind))
            assert policy(grid.agents["A1"]).kind == kind


class TestCandidateKey:
    """The award tie-break is total: ``(eta, is_remote, endpoint)``."""

    def test_lower_eta_wins(self):
        a = (Endpoint("a", 1), (5.0, True))
        b = (Endpoint("b", 2), (7.0, True))
        assert min([b, a], key=_candidate_key) is a

    def test_local_preferred_on_eta_tie(self):
        local = (None, (5.0, True))
        remote = (Endpoint("a", 1), (5.0, True))
        assert min([remote, local], key=_candidate_key) is local

    def test_remote_tie_breaks_on_endpoint(self):
        first = (Endpoint("a.grid", 1001), (5.0, True))
        second = (Endpoint("a.grid", 1002), (5.0, True))
        third = (Endpoint("b.grid", 1000), (5.0, True))
        assert min([third, second, first], key=_candidate_key) is first


class TestAuctionFlow:
    def test_clean_grid_completes(self, sim, specs):
        grid = make_grid(sim, "auction")
        rids = [
            grid.portal.submit(
                grid.agents["A1"],
                specs["sweep3d"].model,
                Environment.TEST,
                sim.now + 500,
            )
            for _ in range(4)
        ]
        grid.run_for(600.0)
        assert all(grid.portal.result(rid).success for rid in rids)
        for agent in grid.agents.values():
            assert open_auctions(policy(agent)) == {}

    def test_impossible_deadline_opens_auction(self, sim, specs):
        """A locally-infeasible request goes to CFP with both children."""
        grid = make_grid(sim, "auction")
        a1 = grid.agents["A1"]
        env = envelope_for(specs, sim, request_id=7001, deadline=sim.now + 1e-3)
        policy(a1).route(env, 0, exclude=frozenset(), attempt=0)
        assert 7001 in open_auctions(policy(a1))
        auction = open_auctions(policy(a1))[7001]
        assert auction.pending == {
            grid.agents["A2"].endpoint,
            grid.agents["A3"].endpoint,
        }
        assert auction.handle is not None and auction.handle.pending

    def test_unsupported_bid_still_settles_round(self, sim, specs):
        """Every bidder answers, so the round closes without its timeout."""
        grid = make_grid(sim, "auction")
        a1 = grid.agents["A1"]
        env = envelope_for(specs, sim, request_id=7002, deadline=sim.now + 1e-3)
        policy(a1).route(env, 0, exclude=frozenset(), attempt=0)
        # Both bids arrive over the transport within a round trip.
        grid.run_for(1.0)
        assert 7002 not in open_auctions(policy(a1))

    def test_late_bid_is_ignored(self, sim, specs):
        grid = make_grid(sim, "auction")
        a1 = grid.agents["A1"]
        forwarded = a1.stats.forwarded
        stray = Message(
            MessageKind.BID,
            grid.agents["A2"].endpoint,
            a1.endpoint,
            payload=BidInfo(request_id=424242, eta=1.0, supported=True),
        )
        assert policy(a1).handle_message(stray)
        assert open_auctions(policy(a1)) == {}
        assert a1.stats.forwarded == forwarded


class TestReservationFlow:
    def test_clean_grid_completes(self, sim, specs):
        grid = make_grid(sim, "reservation")
        rids = [
            grid.portal.submit(
                grid.agents["A1"],
                specs["sweep3d"].model,
                Environment.TEST,
                sim.now + 500,
            )
            for _ in range(4)
        ]
        grid.run_for(600.0)
        assert all(grid.portal.result(rid).success for rid in rids)
        for agent in grid.agents.values():
            assert pending_reservations(policy(agent)) == {}

    def test_reserve_books_and_confirms(self, sim, specs):
        grid = make_grid(sim, "reservation")
        a1, a2 = grid.agents["A1"], grid.agents["A2"]
        env = envelope_for(specs, sim, request_id=8001, deadline=sim.now + 500)
        policy(a2)._on_reserve(
            Message(MessageKind.RESERVE, a1.endpoint, a2.endpoint, payload=env)
        )
        assert 8001 in bookings(policy(a2))
        booker, start, end = bookings(policy(a2))[8001]
        assert booker == a1.endpoint
        assert start < end <= env.request.deadline + 1e-9

    def test_windows_never_overlap(self, sim, specs):
        grid = make_grid(sim, "reservation")
        a1, a2 = grid.agents["A1"], grid.agents["A2"]
        for rid in (8101, 8102, 8103):
            env = envelope_for(
                specs, sim, request_id=rid, deadline=sim.now + 5000
            )
            policy(a2)._on_reserve(
                Message(
                    MessageKind.RESERVE, a1.endpoint, a2.endpoint, payload=env
                )
            )
        windows = sorted(
            (start, end) for _, start, end in bookings(policy(a2)).values()
        )
        assert len(windows) == 3
        for (_, prev_end), (next_start, _) in zip(windows, windows[1:]):
            assert next_start >= prev_end - 1e-9

    def test_infeasible_window_rejected(self, sim, specs):
        grid = make_grid(sim, "reservation")
        a1, a2 = grid.agents["A1"], grid.agents["A2"]
        env = envelope_for(specs, sim, request_id=8201, deadline=sim.now + 1e-3)
        policy(a2)._on_reserve(
            Message(MessageKind.RESERVE, a1.endpoint, a2.endpoint, payload=env)
        )
        assert 8201 not in bookings(policy(a2))

    def test_stale_confirm_releases_window(self, sim, specs):
        """A CONFIRM nobody is waiting for must free the holder's window."""
        grid = make_grid(sim, "reservation")
        a1, a2 = grid.agents["A1"], grid.agents["A2"]
        env = envelope_for(specs, sim, request_id=8301, deadline=sim.now + 500)
        policy(a2)._on_reserve(
            Message(MessageKind.RESERVE, a1.endpoint, a2.endpoint, payload=env)
        )
        _, start, end = bookings(policy(a2))[8301]
        # A1 never asked (no pending entry): the grant is stale.
        policy(a1).handle_message(
            Message(
                MessageKind.CONFIRM,
                a2.endpoint,
                a1.endpoint,
                payload=ReservationGrant(8301, start, end),
            )
        )
        grid.run_for(1.0)  # deliver the RELEASE
        assert 8301 not in bookings(policy(a2))


class TestChurnRegression:
    """Restarted agents honour no state from their previous incarnation."""

    def test_deactivate_clears_open_auctions(self, sim, specs):
        grid = make_grid(sim, "auction")
        a1 = grid.agents["A1"]
        env = envelope_for(specs, sim, request_id=9001, deadline=sim.now + 1e-3)
        policy(a1).route(env, 0, exclude=frozenset(), attempt=0)
        handle = open_auctions(policy(a1))[9001].handle
        assert handle is not None and handle.pending

        a1.deactivate()
        assert open_auctions(policy(a1)) == {}
        assert not handle.pending  # the bid timer died with the round

        a1.reactivate()
        forwarded = a1.stats.forwarded
        late = Message(
            MessageKind.BID,
            grid.agents["A2"].endpoint,
            a1.endpoint,
            payload=BidInfo(request_id=9001, eta=1.0, supported=True),
        )
        assert policy(a1).handle_message(late)
        # The previous incarnation's auction is gone; the bid is a stranger.
        assert open_auctions(policy(a1)) == {}
        assert a1.stats.forwarded == forwarded

    def test_deactivate_clears_bookings_and_pending(self, sim, specs):
        grid = make_grid(sim, "reservation")
        a1, a2 = grid.agents["A1"], grid.agents["A2"]
        held = envelope_for(specs, sim, request_id=9101, deadline=sim.now + 500)
        policy(a2)._on_reserve(
            Message(MessageKind.RESERVE, a1.endpoint, a2.endpoint, payload=held)
        )
        asked = envelope_for(
            specs, sim, request_id=9102, deadline=sim.now + 1e-3
        )
        policy(a2).route(asked, 0, exclude=frozenset(), attempt=0)
        assert 9101 in bookings(policy(a2))
        assert 9102 in pending_reservations(policy(a2))
        handle = pending_reservations(policy(a2))[9102].handle
        assert handle is not None and handle.pending

        a2.deactivate()
        assert bookings(policy(a2)) == {}
        assert pending_reservations(policy(a2)) == {}
        assert not handle.pending

        a2.reactivate()
        # A REQUEST for the voided window is routed fresh, not consumed
        # against a stale booking (it meets its deadline locally here).
        fresh = envelope_for(
            specs, sim, request_id=9101, deadline=sim.now + 500
        )
        policy(a2).route(fresh, 0, exclude=frozenset(), attempt=0)
        assert 9101 not in bookings(policy(a2))
        assert pending_reservations(policy(a2)) == {}

    def test_dead_peers_windows_released(self, sim, specs):
        grid = make_grid(sim, "reservation")
        a1, a2 = grid.agents["A1"], grid.agents["A2"]
        env = envelope_for(specs, sim, request_id=9201, deadline=sim.now + 500)
        policy(a2)._on_reserve(
            Message(MessageKind.RESERVE, a1.endpoint, a2.endpoint, payload=env)
        )
        assert 9201 in bookings(policy(a2))
        policy(a2).on_peer_dead(a1)
        assert bookings(policy(a2)) == {}
