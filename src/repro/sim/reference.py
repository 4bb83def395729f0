"""The single-heap reference engine — the seed implementation.

This is the seed engine preserved verbatim in behaviour: one global binary
heap of :class:`~repro.sim.events.Event` objects ordered by
``Event.__lt__`` over ``(time, priority, sequence)``, with lazy-deleted
cancellations and no compaction.  It is the **correctness oracle** for
:class:`~repro.sim.engine.Engine`, which must fire events in exactly this
engine's order: the equivalence property suite runs scripted workloads and
paper-scale experiments on both and requires identical fire sequences,
completion records, metrics JSON and RNG digests.  The
``engine_events_per_s_single_heap`` benchmark times it on the same event
pattern as the engine.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Callable, Iterator, List, Optional

from repro.errors import SimulationError
from repro.obs.records import EventFired
from repro.sim.events import Event, EventHandle, Priority

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.obs.trace import Tracer

__all__ = ["SingleHeapEngine"]


class SingleHeapEngine:
    """The original global-heap discrete-event engine (reference oracle).

    Examples
    --------
    >>> eng = SingleHeapEngine()
    >>> fired = []
    >>> _ = eng.schedule(5.0, lambda: fired.append(eng.now))
    >>> _ = eng.schedule(1.0, lambda: fired.append(eng.now))
    >>> eng.run()
    2
    >>> fired
    [1.0, 5.0]
    """

    def __init__(
        self, start_time: float = 0.0, *, tracer: Optional["Tracer"] = None
    ) -> None:
        self._start_time = float(start_time)
        self._now = float(start_time)
        self._heap: List[Event] = []
        self._sequence = 0
        self._running = False
        self._fired = 0
        self._pending = 0
        self._tracer = tracer

    # ------------------------------------------------------------------ state

    @property
    def now(self) -> float:
        """The current virtual time in seconds."""
        return self._now

    @property
    def tracer(self) -> Optional["Tracer"]:
        """The tracer event dispatch is reported to, if any."""
        return self._tracer

    @property
    def pending(self) -> int:
        """Number of events still queued, excluding cancelled ones — O(1)."""
        return self._pending

    @property
    def fired_count(self) -> int:
        """Total number of events that have fired."""
        return self._fired

    @property
    def heap_size(self) -> int:
        """Entries in the global heap, including lazy-deleted garbage."""
        return len(self._heap)

    def __len__(self) -> int:
        return self.pending

    # -------------------------------------------------------------- scheduling

    def schedule(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        priority: int = Priority.DEFAULT,
        label: str = "",
    ) -> EventHandle:
        """Schedule *callback* at absolute virtual *time*."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time} before current time t={self._now}"
            )
        event = Event(
            float(time),
            priority,
            self._sequence,
            callback,
            label,
            on_cancel=self._on_event_cancelled,
        )
        self._sequence += 1
        heapq.heappush(self._heap, event)
        self._pending += 1
        return EventHandle(event)

    def schedule_in(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        priority: int = Priority.DEFAULT,
        label: str = "",
    ) -> EventHandle:
        """Schedule *callback* after a relative *delay* in virtual seconds."""
        if delay < 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        return self.schedule(
            self._now + delay, callback, priority=priority, label=label
        )

    def restore_event(
        self, descriptor: dict, callback: Callable[[], None]
    ) -> EventHandle:
        """Re-create a checkpointed event with its **original** identity."""
        time = float(descriptor["time"])
        sequence = int(descriptor["sequence"])
        if time < self._now:
            raise SimulationError(
                f"cannot restore event at t={time} before current time t={self._now}"
            )
        if sequence >= self._sequence:
            raise SimulationError(
                f"restored event sequence {sequence} not below engine "
                f"sequence counter {self._sequence}"
            )
        event = Event(
            time,
            int(descriptor["priority"]),
            sequence,
            callback,
            str(descriptor.get("label", "")),
            on_cancel=self._on_event_cancelled,
        )
        heapq.heappush(self._heap, event)
        self._pending += 1
        return EventHandle(event)

    # ------------------------------------------------------------- checkpoint

    def snapshot_state(self) -> dict:
        """Clock and counter state (events are snapshot by their owners)."""
        return {
            "now": self._now,
            "start_time": self._start_time,
            "sequence": self._sequence,
            "fired": self._fired,
        }

    def restore_state(self, state: dict) -> None:
        """Rewind to a snapshot; pending events must be restored afterwards."""
        self._guard_reentrancy()
        self._heap.clear()
        self._pending = 0
        self._start_time = float(state["start_time"])
        self._now = float(state["now"])
        self._sequence = int(state["sequence"])
        self._fired = int(state["fired"])

    # ------------------------------------------------------------------- run

    def step(self) -> bool:
        """Fire the single next non-cancelled event."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue  # already uncounted by the cancellation hook
            event.fired = True
            self._pending -= 1
            self._now = event.time
            self._fired += 1
            if self._tracer is not None:
                self._tracer.emit(
                    EventFired(
                        t=event.time,
                        label=event.label,
                        priority=int(event.priority),
                        seq=event.sequence,
                    )
                )
            event.callback()
            return True
        return False

    def run_until(self, end_time: float) -> None:
        """Fire every event with ``time <= end_time``; advance the clock to it."""
        if end_time < self._now:
            raise SimulationError(
                f"cannot run to t={end_time}, already at t={self._now}"
            )
        self._guard_reentrancy()
        self._running = True
        try:
            while self._heap:
                head = self._peek()
                if head is None or head.time > end_time:
                    break
                self.step()
            self._now = float(end_time)
        finally:
            self._running = False

    def run(self, max_events: Optional[int] = None) -> int:
        """Fire events until the queue drains (or *max_events* fire)."""
        self._guard_reentrancy()
        self._running = True
        fired = 0
        try:
            while (max_events is None or fired < max_events) and self.step():
                fired += 1
        finally:
            self._running = False
        return fired

    def reset(self) -> None:
        """Return the engine to its just-constructed state."""
        self._guard_reentrancy()
        self._heap.clear()
        self._now = self._start_time
        self._sequence = 0
        self._fired = 0
        self._pending = 0

    # --------------------------------------------------------------- helpers

    def _on_event_cancelled(self) -> None:
        """Event.cancel hook: keep the live pending count exact."""
        self._pending -= 1

    def _peek(self) -> Optional[Event]:
        """Return the next non-cancelled event without popping it."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0] if self._heap else None

    def next_event_time(self) -> Optional[float]:
        """Virtual time of the next pending event, or ``None`` if empty."""
        head = self._peek()
        return head.time if head is not None else None

    def _guard_reentrancy(self) -> None:
        if self._running:
            raise SimulationError("engine is already running (reentrant run call)")

    def iter_labels(self) -> Iterator[str]:
        """Labels of pending events, in heap (not firing) order — debug aid."""
        return (e.label for e in self._heap if not e.cancelled)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SingleHeapEngine(now={self._now:.3f}, "
            f"pending={self.pending}, fired={self._fired})"
        )
