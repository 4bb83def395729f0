"""Tests for the in-memory transport."""

from __future__ import annotations

import pytest

from repro.errors import TransportError, ValidationError
from repro.net.message import Endpoint, Message, MessageKind
from repro.net.transport import Transport
from tests.oracles import tap


@pytest.fixture
def transport(sim):
    return Transport(sim)


def _msg(sender, recipient, payload=None):
    return Message(MessageKind.ADVERTISE, sender, recipient, payload)


class TestRegistration:
    def test_register_and_send(self, sim, transport):
        a, b = Endpoint("a", 1), Endpoint("b", 1)
        received = []
        transport.register(b, received.append)
        transport.register(a, lambda m: None)
        transport.send(_msg(a, b, "hello"))
        sim.run()
        assert len(received) == 1
        assert received[0].payload == "hello"

    def test_double_register_rejected(self, transport):
        ep = Endpoint("a", 1)
        transport.register(ep, lambda m: None)
        with pytest.raises(TransportError):
            transport.register(ep, lambda m: None)

    def test_send_to_unknown_rejected(self, transport):
        with pytest.raises(TransportError):
            transport.send(_msg(Endpoint("a", 1), Endpoint("ghost", 1)))

    def test_unregister(self, transport):
        ep = Endpoint("a", 1)
        transport.register(ep, lambda m: None)
        transport.unregister(ep)
        assert not transport.is_registered(ep)
        with pytest.raises(TransportError):
            transport.unregister(ep)


class TestDelivery:
    def test_asynchronous_even_at_zero_latency(self, sim, transport):
        """Handlers run in their own event, never inline with send."""
        a, b = Endpoint("a", 1), Endpoint("b", 1)
        order = []
        transport.register(b, lambda m: order.append("delivered"))
        transport.register(a, lambda m: None)
        transport.send(_msg(a, b))
        order.append("after-send")
        sim.run()
        assert order == ["after-send", "delivered"]

    def test_latency_delays_delivery(self, sim, transport):
        a, b = Endpoint("a", 1), Endpoint("b", 1)
        times = []
        transport.register(b, lambda m: times.append(sim.now))
        transport.register(a, lambda m: None)
        transport.send(_msg(a, b), extra_latency=2.5)
        transport.send(_msg(a, b))
        sim.run()
        assert times == [0.0, 2.5]

    def test_in_flight_to_unregistered_is_dropped(self, sim, transport):
        a, b = Endpoint("a", 1), Endpoint("b", 1)
        transport.register(a, lambda m: None)
        transport.register(b, lambda m: None)
        transport.send(_msg(a, b))
        transport.unregister(b)
        sim.run()
        assert transport.delivered == 0
        assert transport.dropped_count == 1
        # The deprecated unbounded-list property is gone for good.
        assert not hasattr(transport, "dropped")

    def test_counters(self, sim, transport):
        a, b = Endpoint("a", 1), Endpoint("b", 1)
        transport.register(a, lambda m: None)
        transport.register(b, lambda m: None)
        for _ in range(3):
            transport.send(_msg(a, b))
        sim.run()
        assert transport.sent == 3
        assert transport.delivered == 3

    def test_tap_observes_all(self, sim, transport):
        a, b = Endpoint("a", 1), Endpoint("b", 1)
        transport.register(a, lambda m: None)
        transport.register(b, lambda m: None)
        seen = []
        tap(transport, lambda m: seen.append(m.kind))
        transport.send(_msg(a, b))
        sim.run()
        assert seen == [MessageKind.ADVERTISE]

    def test_negative_latency_rejected(self, transport):
        a, b = Endpoint("a", 1), Endpoint("b", 1)
        transport.register(b, lambda m: None)
        with pytest.raises(ValidationError):
            transport.send(_msg(a, b), extra_latency=-1.0)

    def test_nan_latency_rejected(self, sim, transport):
        a, b = Endpoint("a", 1), Endpoint("b", 1)
        transport.register(b, lambda m: None)
        with pytest.raises(ValidationError):
            transport.send(_msg(a, b), extra_latency=float("nan"))
        assert transport.sent == 0
        assert sim.run() == 0

    def test_fifo_order_between_same_pair(self, sim, transport):
        a, b = Endpoint("a", 1), Endpoint("b", 1)
        payloads = []
        transport.register(b, lambda m: payloads.append(m.payload))
        transport.register(a, lambda m: None)
        for i in range(5):
            transport.send(_msg(a, b, i))
        sim.run()
        assert payloads == [0, 1, 2, 3, 4]
