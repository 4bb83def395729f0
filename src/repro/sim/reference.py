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
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.errors import SimulationError
from repro.obs.records import EventFired
from repro.sim.events import Event, Priority

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
    def pending(self) -> int:
        """Number of events still queued, excluding cancelled ones — O(1)."""
        return self._pending

    @property
    def fired_count(self) -> int:
        """Total number of events that have fired."""
        return self._fired

    @property
    def sequence(self) -> int:
        """The sequence number the next scheduled event gets."""
        return self._sequence

    # -------------------------------------------------------------- scheduling

    def schedule(
        self,
        time: float,
        callback: Callable[..., None],
        *,
        priority: int = Priority.DEFAULT,
        label: str = "",
        arg: object = None,
    ) -> Event:
        """Schedule *callback* (``callback(arg)`` with an *arg*) at absolute
        virtual *time*."""
        if not time >= self._now:
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
            arg=arg,
        )
        self._sequence += 1
        heapq.heappush(self._heap, event)
        self._pending += 1
        return event

    def schedule_in(
        self,
        delay: float,
        callback: Callable[..., None],
        *,
        priority: int = Priority.DEFAULT,
        label: str = "",
        arg: object = None,
    ) -> Event:
        """Schedule *callback* after a relative *delay* in virtual seconds."""
        if not delay >= 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        return self.schedule(
            self._now + delay, callback, priority=priority, label=label, arg=arg
        )

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
            if event.arg is None:
                event.callback()
            else:
                event.callback(event.arg)
            return True
        return False

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

    # --------------------------------------------------------------- helpers

    def _on_event_cancelled(self) -> None:
        """Event.cancel hook: keep the live pending count exact."""
        self._pending -= 1

    def _guard_reentrancy(self) -> None:
        if self._running:
            raise SimulationError("engine is already running (reentrant run call)")
