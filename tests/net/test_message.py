"""Tests for message and endpoint types."""

from __future__ import annotations

import pickle

import pytest

from repro.checkpoint.codec import decode_message, encode_message
from repro.errors import TransportError
from repro.net.message import Endpoint, Message, MessageKind
from tests.oracles import forward_message


class TestEndpoint:
    def test_str(self):
        assert str(Endpoint("gem.dcs.warwick.ac.uk", 1000)) == "gem.dcs.warwick.ac.uk:1000"

    def test_empty_address_rejected(self):
        with pytest.raises(TransportError):
            Endpoint("", 1000)

    @pytest.mark.parametrize("port", [0, -1, 70000])
    def test_bad_port_rejected(self, port):
        with pytest.raises(TransportError):
            Endpoint("host", port)

    def test_hashable_and_ordered(self):
        a = Endpoint("a", 1)
        b = Endpoint("b", 1)
        assert a < b
        assert len({a, b, Endpoint("a", 1)}) == 2

    @pytest.mark.parametrize(
        "left, right",
        [(("a", 1), ("a", 2)), (("a", 2), ("b", 1)), (("b", 7), ("b", 7))],
    )
    def test_hash_eq_and_order_are_the_tuples(self, left, right):
        """Dict, set and sorted orders keyed by endpoints stay the tuples'."""
        a, b = Endpoint(*left), Endpoint(*right)
        assert hash(a) == hash(left)
        assert a == left and (a == b) == (left == right)
        assert (a < b) == (left < right) and (b < a) == (right < left)
        assert sorted([b, a]) == sorted([right, left])

    def test_fields_cannot_be_assigned(self):
        ep = Endpoint("a", 1)
        with pytest.raises(AttributeError):
            ep.port = 2
        with pytest.raises(AttributeError):
            ep.extra = 1

    def test_pickle_round_trip(self):
        ep = Endpoint("gem", 1000)
        back = pickle.loads(pickle.dumps(ep))
        assert back == ep and type(back) is Endpoint and str(back) == "gem:1000"


class TestMessage:
    def test_forwarded_increments_hops(self):
        a, b, c = (Endpoint(x, 1) for x in "abc")
        original = Message(MessageKind.REQUEST, a, b, payload="req", hops=2)
        forwarded = forward_message(original, b, c)
        assert forwarded.hops == 3
        assert forwarded.sender == b
        assert forwarded.recipient == c
        assert forwarded.payload == "req"
        assert original.hops == 2  # immutable

    def test_fields_cannot_be_assigned(self):
        a = Endpoint("a", 1)
        message = Message(MessageKind.PULL, a, a, None)
        with pytest.raises(AttributeError):
            message.hops = 1
        with pytest.raises(AttributeError):
            message.extra = 1

    def test_pickle_round_trip(self):
        a, b = Endpoint("a", 1), Endpoint("b", 2)
        message = Message(MessageKind.REQUEST, a, b, payload="req", hops=2)
        back = pickle.loads(pickle.dumps(message))
        assert back == message and type(back) is Message

    def test_codec_round_trip(self):
        a, b = Endpoint("a", 1), Endpoint("b", 2)
        message = Message(MessageKind.PULL, a, b, None, hops=3)
        back = decode_message(encode_message(message), applications={})
        assert back == message and type(back) is Message

    def test_a_message_is_its_fields(self):
        """No hidden identity: equal fields make equal messages, and the
        agents' direct tuple construction builds what the class does."""
        a, b = Endpoint("a", 1), Endpoint("b", 2)
        message = Message(MessageKind.PULL, a, b, None)
        assert message == Message(MessageKind.PULL, a, b, None, 0)
        assert tuple.__new__(Message, (MessageKind.PULL, a, b, None, 0)) == message
        assert Message._fields == ("kind", "sender", "recipient", "payload", "hops")
