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
* :class:`MemorySink` — a ring buffer (unbounded by default) for tests,
  the golden-trace tier, and the CLI;
* :class:`FileSink` — deterministic JSONL (sorted keys, sim-time stamps
  only) for offline diffing;
* :class:`TeeSink` — fan out to several sinks.
"""

from __future__ import annotations

import json
from collections import deque
from typing import IO, List, Optional, Sequence

from repro.errors import ValidationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.records import TraceRecord, record_to_dict

__all__ = ["TraceSink", "MemorySink", "FileSink", "TeeSink", "Tracer"]


class TraceSink:
    """Interface of a trace destination."""

    def emit(self, record: TraceRecord) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources (default: nothing to release)."""


class MemorySink(TraceSink):
    """Retains records in memory, optionally ring-buffered.

    Parameters
    ----------
    capacity:
        Maximum records retained (oldest evicted first); ``None`` keeps
        everything — the right setting for golden traces and assertions,
        while long interactive runs can bound their footprint.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValidationError(f"capacity must be >= 1, got {capacity}")
        self._records: deque = deque(maxlen=capacity)
        self._emitted = 0

    @property
    def records(self) -> List[TraceRecord]:
        """The retained records, oldest first (copy)."""
        return list(self._records)

    @property
    def emitted(self) -> int:
        """Total records ever emitted (including any evicted)."""
        return self._emitted

    def emit(self, record: TraceRecord) -> None:
        self._records.append(record)
        self._emitted += 1

    def clear(self) -> None:
        """Drop all retained records and zero the emitted count."""
        self._records.clear()
        self._emitted = 0


class FileSink(TraceSink):
    """Writes one deterministic JSON object per record to a file."""

    def __init__(self, path: str) -> None:
        self._path = path
        self._handle: Optional[IO[str]] = open(path, "w", encoding="utf-8")
        self._emitted = 0

    @property
    def path(self) -> str:
        """The output path."""
        return self._path

    @property
    def emitted(self) -> int:
        """Records written so far."""
        return self._emitted

    def emit(self, record: TraceRecord) -> None:
        if self._handle is None:
            raise ValidationError(f"file sink {self._path!r} already closed")
        self._handle.write(json.dumps(record_to_dict(record), sort_keys=True))
        self._handle.write("\n")
        self._emitted += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class TeeSink(TraceSink):
    """Forwards every record to several sinks."""

    def __init__(self, sinks: Sequence[TraceSink]) -> None:
        if not sinks:
            raise ValidationError("tee sink needs at least one sink")
        self._sinks = tuple(sinks)

    def emit(self, record: TraceRecord) -> None:
        for sink in self._sinks:
            sink.emit(record)

    def close(self) -> None:
        for sink in self._sinks:
            sink.close()


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
    def sink(self) -> TraceSink:
        """The destination sink."""
        return self._sink

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

    def close(self) -> None:
        """Close the underlying sink."""
        self._sink.close()
