"""Tests for the in-memory transport."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError, TransportError, ValidationError
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


class TestBatch:
    """Zero-delay sends made while a batch is open share one event."""

    @pytest.fixture
    def pair(self, transport):
        a, b = Endpoint("a", 1), Endpoint("b", 1)
        log = []
        transport.register(a, lambda m: log.append(("a", m.payload)))
        transport.register(b, lambda m: log.append(("b", m.payload)))
        return a, b, log

    def test_one_event_delivers_the_batch_in_send_order(self, sim, transport, pair):
        a, b, log = pair
        transport.open_batch()
        for i in range(4):
            transport.send(_msg(a, b, i))
        assert log == [] and sim.sequence == 0
        transport.close_batch()
        assert sim.run() == 1
        assert log == [("b", 0), ("b", 1), ("b", 2), ("b", 3)]
        assert (transport.sent, transport.delivered) == (4, 4)

    def test_answers_travel_as_the_next_batch(self, sim, transport):
        a, b = Endpoint("a", 1), Endpoint("b", 1)
        log = []

        def answer(message):
            log.append(("b", message.payload, sim.fired_count))
            transport.send(_msg(b, a, message.payload))

        transport.register(b, answer)
        transport.register(a, lambda m: log.append(("a", m.payload, sim.fired_count)))
        transport.open_batch()
        transport.send(_msg(a, b, 0))
        transport.send(_msg(a, b, 1))
        transport.close_batch()
        assert sim.run() == 2
        assert log == [("b", 0, 1), ("b", 1, 1), ("a", 0, 2), ("a", 1, 2)]

    def test_an_empty_batch_schedules_nothing(self, sim, transport):
        transport.open_batch()
        transport.close_batch()
        assert sim.sequence == 0 and sim.run() == 0

    def test_delayed_sends_keep_their_own_events(self, sim, transport, pair):
        a, b, log = pair
        transport.open_batch()
        transport.send(_msg(a, b, "late"), extra_latency=2.0)
        transport.send(_msg(a, b, "now"))
        transport.close_batch()
        sim.run()
        assert log == [("b", "now"), ("b", "late")]
        assert sim.now == 2.0

    def test_a_delay_below_the_clock_resolution_rides_the_batch(
        self, sim, transport, pair
    ):
        a, b, log = pair
        sim.schedule(1.0, lambda: None)
        sim.run()
        transport.open_batch()
        transport.send(_msg(a, b, 0))
        transport.send(_msg(a, b, 1), extra_latency=1e-30)
        transport.send(_msg(a, b, 2))
        transport.close_batch()
        assert sim.run() == 1
        assert log == [("b", 0), ("b", 1), ("b", 2)]

    def test_scheduling_anything_else_while_open_is_refused(self, sim, transport, pair):
        a, b, _ = pair
        transport.open_batch()
        transport.send(_msg(a, b))
        sim.schedule_in(5.0, lambda: None)
        with pytest.raises(SimulationError, match="batch"):
            transport.close_batch()

    def test_a_handler_scheduling_inside_a_batch_is_refused(self, sim, transport):
        a, b = Endpoint("a", 1), Endpoint("b", 1)
        transport.register(a, lambda m: None)
        transport.register(b, lambda m: sim.schedule_in(1.0, lambda: None))
        transport.open_batch()
        transport.send(_msg(a, b))
        transport.close_batch()
        with pytest.raises(SimulationError, match="batch"):
            sim.run()
