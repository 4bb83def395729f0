#!/usr/bin/env python
"""Micro-benchmark: hot-path object allocation without ``__dict__``.

The simulator allocates one :class:`~repro.sim.events.Event` per scheduled
callback and one :class:`~repro.net.message.Message` per transport send —
at 1000-agent scale that is hundreds of thousands of allocations per
simulated experiment.  This script measures the committed classes (a
slotted ``Event``, a tuple-backed ``Message``) against ``__dict__``-based
doubles, reporting allocations/second and per-instance memory, and then
runs the suite's ``engine_event_alloc`` benchmark (the number recorded in
BENCH_PERF.json)::

    python benchmarks/perf/bench_alloc.py [--count N] [--repeats N]

The doubles live here, not in ``src/``, so production code carries exactly
one implementation; keep their fields in sync with the real classes when
those change.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "src"))

from dataclasses import dataclass  # noqa: E402

from repro.net.message import Endpoint, Message, MessageKind  # noqa: E402
from repro.perf import bench_event_alloc  # noqa: E402
from repro.sim.events import Event  # noqa: E402


class DictEvent:
    """``Event`` minus ``__slots__`` — same fields, per-instance ``__dict__``.

    The only difference from the real class is the missing ``__slots__``
    declaration, so the comparison isolates exactly that.
    """

    def __init__(self, time, priority, sequence, callback, label="",
                 on_cancel=None, arg=None):
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.label = label
        self.cancelled = False
        self.fired = False
        self.on_cancel = on_cancel
        self.arg = arg


@dataclass(frozen=True)
class DictMessage:
    """``Message`` as a frozen dataclass with a per-instance ``__dict__``:
    the same fields, set one ``object.__setattr__`` at a time."""

    kind: MessageKind
    sender: Endpoint
    recipient: Endpoint
    payload: object
    hops: int = 0


def _noop() -> None:
    return None


def _rate(factory, count: int, repeats: int) -> float:
    """Best-of-*repeats* allocations/second for *factory*."""
    sender = Endpoint("bench-a", 1)
    recipient = Endpoint("bench-b", 2)
    best = float("inf")
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            for sequence in range(count):
                factory(sequence, sender, recipient)
            best = min(best, time.perf_counter() - start)
    finally:
        if gc_was_enabled:
            gc.enable()
    return 2 * count / best


def _slotted(sequence, sender, recipient):
    Event(1.0, 50, sequence, _noop, "bench")
    Message(MessageKind.REQUEST, sender, recipient, None)


def _dicted(sequence, sender, recipient):
    DictEvent(1.0, 50, sequence, _noop, "bench")
    DictMessage(MessageKind.REQUEST, sender, recipient, None)


def _instance_bytes(obj) -> int:
    """Resident bytes for one instance, counting the ``__dict__`` if any."""
    size = sys.getsizeof(obj)
    if hasattr(obj, "__dict__"):
        size += sys.getsizeof(obj.__dict__)
    return size


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=200_000)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    slotted = _rate(_slotted, args.count, args.repeats)
    dicted = _rate(_dicted, args.count, args.repeats)
    print(f"Event+Message         : {slotted:12,.0f} objects/s")
    print(f"__dict__ doubles      : {dicted:12,.0f} objects/s")
    print(f"allocation speedup    : {slotted / dicted:12.2f} x")

    sender = Endpoint("bench-a", 1)
    recipient = Endpoint("bench-b", 2)
    event = Event(1.0, 50, 0, _noop, "bench")
    devent = DictEvent(1.0, 50, 0, _noop, "bench")
    print(f"Event bytes/instance  : {_instance_bytes(event):4d} slotted vs "
          f"{_instance_bytes(devent)} with __dict__")
    message = Message(MessageKind.REQUEST, sender, recipient, None)
    dmessage = DictMessage(MessageKind.REQUEST, sender, recipient, None)
    print(f"Message bytes/instance: {_instance_bytes(message):4d} tuple vs "
          f"{_instance_bytes(dmessage)} with __dict__")

    result = bench_event_alloc(count=args.count, repeats=args.repeats)
    print(f"{result.name} (suite): {result.value:12,.0f} {result.unit} "
          f"[{result.detail}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
