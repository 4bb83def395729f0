"""Tests for message and endpoint types."""

from __future__ import annotations

import pytest

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


class TestMessage:
    def test_ids_unique(self):
        a = Endpoint("a", 1)
        m1 = Message(MessageKind.PULL, a, a, None)
        m2 = Message(MessageKind.PULL, a, a, None)
        assert m1.message_id != m2.message_id

    def test_forwarded_increments_hops(self):
        a, b, c = (Endpoint(x, 1) for x in "abc")
        original = Message(MessageKind.REQUEST, a, b, payload="req", hops=2)
        forwarded = forward_message(original, b, c)
        assert forwarded.hops == 3
        assert forwarded.sender == b
        assert forwarded.recipient == c
        assert forwarded.payload == "req"
        assert original.hops == 2  # immutable
