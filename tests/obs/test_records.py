"""Tests for the trace record schema and the canonical serialisation."""

from __future__ import annotations

import json

import pytest

from repro.obs.records import (
    CANONICAL_FIELDS,
    AgentDown,
    DiscoveryEvaluated,
    EventFired,
    EvolveStep,
    MessageDelivered,
    MessageDropped,
    MessageSent,
    TraceRecord,
    canonical_dict,
    canonical_lines,
)


def _all_record_classes():
    def walk(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from walk(sub)

    return sorted(set(walk(TraceRecord)), key=lambda c: c.kind)


class TestSchema:
    def test_kinds_are_unique(self):
        kinds = [cls.kind for cls in _all_record_classes()]
        assert len(kinds) == len(set(kinds))

    def test_records_are_frozen(self):
        record = EventFired(t=1.0, label="x", priority=0, seq=0)
        with pytest.raises(Exception):
            record.t = 2.0

    @pytest.mark.parametrize("cls", _all_record_classes(), ids=lambda c: c.kind)
    def test_canonical_whitelist_names_real_fields(self, cls):
        """Every whitelisted field exists on its record class."""
        from dataclasses import fields

        kept = CANONICAL_FIELDS.get(cls.kind)
        if kept is None:
            return
        declared = {f.name for f in fields(cls)}
        assert set(kept) <= declared, cls.kind

    def test_every_kind_is_classified(self):
        """Each kind is either canonical or deliberately dropped bulk."""
        dropped = {"sim.event", "net.send", "net.deliver"}
        for cls in _all_record_classes():
            assert (cls.kind in CANONICAL_FIELDS) != (cls.kind in dropped), cls.kind


class TestCanonical:
    def test_bulk_kinds_are_dropped(self):
        assert canonical_dict(EventFired(t=0.0, label="x", priority=0, seq=1)) is None
        assert canonical_dict(
            MessageSent(t=0.0, msg="pull", sender="a:1", recipient="b:2", hops=0)
        ) is None
        assert canonical_dict(
            MessageDelivered(t=0.0, msg="pull", sender="a:1", recipient="b:2", hops=0)
        ) is None

    def test_drop_records_keep_attribution(self):
        out = canonical_dict(
            MessageDropped(
                t=5.0, msg="request", sender="a:1", recipient="b:2", hops=1,
                reason="loss",
            )
        )
        assert out == {
            "kind": "net.drop", "t": 5.0, "msg": "request", "sender": "a:1",
            "recipient": "b:2", "hops": 1, "reason": "loss",
        }

    def test_evolve_history_is_dropped(self):
        out = canonical_dict(
            EvolveStep(
                t=1.0, resource="S1", n_tasks=3, generations=10,
                best_cost=4.5, history=(9.0, 5.0, 4.5),
            )
        )
        assert "history" not in out
        assert out["best_cost"] == 4.5

    def test_agent_down_keeps_only_the_agent(self):
        out = canonical_dict(AgentDown(t=2.0, agent="S4", endpoint="s4.grid:1003"))
        assert out == {"kind": "agent.down", "t": 2.0, "agent": "S4"}

    def test_lines_are_sorted_key_json(self):
        records = [
            DiscoveryEvaluated(
                t=1.0, agent="S3", request_id=0, hops=0, decision="forward",
                target="S1", estimate=14.0, reason="advertised service",
            ),
            EventFired(t=1.0, label="x", priority=0, seq=0),  # dropped
        ]
        lines = canonical_lines(records)
        assert len(lines) == 1
        parsed = json.loads(lines[0])
        assert parsed["kind"] == "agent.discovery"
        assert list(parsed) == sorted(parsed)
