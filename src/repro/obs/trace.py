"""Sinks and the :class:`Tracer` — how trace records leave the system.

Zero overhead when off
----------------------
Tracing is *opt-in per run*: every instrumented component takes an
optional ``tracer`` and guards each emission with a single
``if tracer is not None`` attribute test, so the tracing-off hot path
costs one predictable-branch pointer comparison per site (measured ≤ the
perf gate's noise floor on ``ga_evolve`` — see
docs/observability.md for the methodology).  There is no global registry,
no environment-variable lookup, and no disabled-logger call overhead.

Sinks
-----
:class:`MemorySink`, which keeps every record, serves the CLI, the
golden-trace tier and the tests; ``repro trace --out`` writes its
records as canonical JSONL (:func:`~repro.obs.records.canonical_lines`).
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ValidationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.records import TraceRecord

__all__ = ["TraceSink", "MemorySink", "Tracer"]


class TraceSink:
    """Interface of a trace destination."""

    def emit(self, record: TraceRecord) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class MemorySink(TraceSink):
    """Retains every record in memory, in emission order."""

    def __init__(self) -> None:
        self._records: List[TraceRecord] = []

    @property
    def records(self) -> List[TraceRecord]:
        """The retained records, oldest first (copy)."""
        return list(self._records)

    def emit(self, record: TraceRecord) -> None:
        self._records.append(record)


class Tracer:
    """The handle instrumented components emit through.

    Couples a sink with a :class:`~repro.obs.metrics.MetricsRegistry`:
    every emission also bumps the ``records.<kind>`` counter, so a
    metrics snapshot summarises a trace without replaying it.  Emission
    never draws randomness and never mutates simulation state — with the
    same seed, a traced run's experiment outputs are byte-identical to an
    untraced run's (property-tested).
    """

    def __init__(
        self, sink: Optional[TraceSink] = None, *,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._sink = sink if sink is not None else MemorySink()
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    @property
    def records(self) -> List[TraceRecord]:
        """The retained records, when the sink keeps them in memory."""
        if not isinstance(self._sink, MemorySink):
            raise ValidationError(
                f"{type(self._sink).__name__} does not retain records; "
                "use a MemorySink"
            )
        return self._sink.records

    def emit(self, record: TraceRecord) -> None:
        """Record one trace event."""
        self.metrics.counter("records." + record.kind).inc()
        self._sink.emit(record)
