"""The discrete-event simulation engine.

The paper's experiments ran a live system in *test mode*: tasks were never
executed; predicted times were booked against the clock as if real.  This
engine reproduces that mode in virtual time — requests arrive at virtual
seconds, schedulers book predicted execution intervals, agents pull service
information on periodic timers — and makes every run deterministic and far
faster than real time.

Design notes
------------
* Events are totally ordered by ``(time, priority, sequence)``; the
  monotonically increasing sequence number breaks ties by insertion order,
  so replays are exact.  The order is the one the seed engine
  (:class:`repro.sim.reference.SingleHeapEngine`) fires in, property-tested
  for byte-identity.
* A binary heap of ``(time, priority, sequence, event)`` tuples, which
  compare in C (sequences are unique, so the event itself is never
  compared), takes every event but one kind: a ``schedule_in(0.0, …)``
  at :attr:`Priority.DEFAULT` (a zero-delay message delivery) is
  appended to a FIFO of the events themselves.  Each FIFO key is
  ``(now, DEFAULT, next sequence)``, and neither the clock nor the
  sequence counter ever goes back (``restore_state``, which resets both,
  empties the queues), so the FIFO is sorted by construction.
  :meth:`Engine.step` fires whichever head, heap or FIFO, has the smaller
  key, reading the FIFO head's key off the event: the fire order is
  exactly the single heap's, and a same-instant delivery costs an append
  and a pop instead of a heap push and pop.
* An event may carry one argument for its callback (``arg=``): a message
  delivery is one event holding its message, fired as
  ``callback(message)``, so a delivery allocates no callback object of
  its own.
* Cancelled events are lazy-deleted, in whichever queue holds them, but
  **compacted**: a live garbage counter over both queues (maintained by
  the ``Event.on_cancel`` hook and the pop-time sweeps) triggers an
  in-place filter of both once cancelled entries both exceed
  :data:`COMPACT_MIN` and outnumber live pending events, so
  schedule/cancel loops cannot grow either queue without bound.
* Scheduling an event in the past, or at a NaN time or delay, raises
  :class:`SimulationError` (a virtual clock can only move forward, and a
  NaN key compares false both ways and would fire out of order).  Each
  guard is written ``if not x >= bound`` so that NaN fails it.
* :meth:`Engine.step` is the one firing path; ``run`` and ``run_until``
  loop over it.  Callbacks may schedule further events, including at the
  current instant.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.errors import SimulationError
from repro.sim.events import Event, Priority

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.obs.trace import Tracer

__all__ = ["Engine", "COMPACT_MIN"]

#: Minimum number of cancelled-but-queued events before compaction is even
#: considered; below this the lazy-delete garbage is cheaper than a rebuild.
COMPACT_MIN = 64

_DEFAULT = Priority.DEFAULT

_Entry = Tuple[float, int, int, Event]


class Engine:
    """A deterministic discrete-event simulation engine.

    Examples
    --------
    >>> eng = Engine()
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
        self._heap: List[_Entry] = []
        # Zero-delay DEFAULT-priority events, in key order by construction.
        self._fifo: Deque[Event] = deque()
        self._sequence = 0
        self._running = False
        self._fired = 0
        # Live count of non-cancelled queued events, kept exact on
        # schedule/fire/cancel so ``pending`` is O(1).
        self._pending = 0
        # Cancelled events still queued: raised by the cancel hook,
        # lowered by the pop-time sweeps, zeroed by compaction.
        self._garbage = 0
        self._tracer = tracer
        # One bound method shared by every event instead of a fresh bound
        # method per ``schedule`` call.
        self._cancel_hook = self._on_event_cancelled

    # ------------------------------------------------------------------ state

    @property
    def now(self) -> float:
        """The current virtual time in seconds."""
        return self._now

    @property
    def fired_count(self) -> int:
        """Total number of events that have fired."""
        return self._fired

    # -------------------------------------------------------------- scheduling

    def schedule(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        priority: int = Priority.DEFAULT,
        label: str = "",
        lane: str = "",
    ) -> Event:
        """Schedule *callback* at absolute virtual *time*.

        *lane* is accepted and ignored: it is kept only so callers written
        for the retired lane-partitioned engine still run.

        Raises
        ------
        SimulationError
            If *time* precedes the current virtual time or is NaN.
        """
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule event at t={time} before current time t={self._now}"
            )
        time = float(time)
        # The push is written out here and in ``schedule_in`` rather than
        # shared through a helper: one call frame fewer per event measured
        # ~5 % on the ``bench_engine_events`` cascade workload (2-core Xeon
        # container).
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(time, priority, sequence, callback, label, self._cancel_hook)
        heappush(self._heap, (time, priority, sequence, event))
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
        """Schedule *callback* after a relative *delay* in virtual seconds.

        With *arg* other than ``None`` the event fires ``callback(arg)``.
        A zero *delay* at :attr:`Priority.DEFAULT` appends the event to the
        FIFO (module notes); every other event goes on the heap.

        Raises
        ------
        SimulationError
            If *delay* is negative or NaN.
        """
        if not delay >= 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        time = self._now + delay
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(
            time, priority, sequence, callback, label, self._cancel_hook, arg
        )
        if delay == 0.0 and priority == _DEFAULT:
            self._fifo.append(event)
        else:
            heappush(self._heap, (time, priority, sequence, event))
        self._pending += 1
        return event

    def restore_event(
        self, descriptor: dict, callback: Callable[..., None], *, arg: object = None
    ) -> Event:
        """Re-create a checkpointed event with its **original** identity.

        Unlike :meth:`schedule`, the sequence number comes from the
        *descriptor* (captured by :meth:`Event.descriptor` at snapshot
        time) rather than the engine counter, so the restored queue fires in
        exactly the order the interrupted run would have.  A restored event
        always goes on the heap, whatever its key: the merge in :meth:`step`
        orders it against the FIFO by key.  Must only be called after
        :meth:`restore_state` has set the clock and sequence counter; the
        descriptor's sequence must predate the restored counter.  *arg*
        is the callback's argument, as in :meth:`schedule_in`.
        """
        time = float(descriptor["time"])
        priority = int(descriptor["priority"])
        sequence = int(descriptor["sequence"])
        if not time >= self._now:
            raise SimulationError(
                f"cannot restore event at t={time} before current time t={self._now}"
            )
        if sequence >= self._sequence:
            raise SimulationError(
                f"restored event sequence {sequence} not below engine "
                f"sequence counter {self._sequence}"
            )
        label = str(descriptor.get("label", ""))
        event = Event(
            time, priority, sequence, callback, label, self._cancel_hook, arg
        )
        heappush(self._heap, (time, priority, sequence, event))
        self._pending += 1
        return event

    # ------------------------------------------------------------- checkpoint

    def snapshot_state(self) -> dict:
        """Clock and counter state (events are snapshot by their owners).

        Every pending event is owned by exactly one component (executor
        completion handles, periodic processes, the transport's deliveries,
        which it finds through :meth:`queued`, …) which serialises its
        descriptor and re-creates it on restore; the engine itself only
        carries the clock, the sequence counter, and the fired total.
        """
        return {
            "now": self._now,
            "start_time": self._start_time,
            "sequence": self._sequence,
            "fired": self._fired,
        }

    def restore_state(self, state: dict) -> None:
        """Rewind to a snapshot; pending events must be restored afterwards.

        Discards any queued events (a freshly built system has only
        construction-time events, all superseded by the snapshot's
        descriptors) and resets the clock/counters so subsequent
        :meth:`restore_event` calls rebuild the queue exactly.
        """
        self._guard_reentrancy()
        self._heap.clear()
        self._fifo.clear()
        self._pending = 0
        self._garbage = 0
        self._start_time = float(state["start_time"])
        self._now = float(state["now"])
        self._sequence = int(state["sequence"])
        self._fired = int(state["fired"])

    def queued(self) -> Iterator[Event]:
        """Every pending event, heap first, then FIFO (read-only view).

        For components that keep no handle on their own events: the
        transport reads its in-flight deliveries off the queues here when
        it is checkpointed.  The order is not the fire order.
        """
        for entry in self._heap:
            event = entry[3]
            if not event.cancelled:
                yield event
        for event in self._fifo:
            if not event.cancelled:
                yield event

    # ------------------------------------------------------------------- run

    def step(self) -> bool:
        """Fire the single next non-cancelled event.

        The next event is the head of the heap or of the FIFO, whichever
        has the smaller ``(time, priority, sequence)`` key.  Returns
        ``True`` if an event fired, ``False`` if both queues drained.
        """
        heap = self._heap
        fifo = self._fifo
        while True:
            if fifo:
                event = fifo[0]
                if heap and heap[0] < (event.time, _DEFAULT, event.sequence):
                    event = heappop(heap)[3]
                else:
                    fifo.popleft()
            elif heap:
                event = heappop(heap)[3]
            else:
                return False
            if event.cancelled:
                self._garbage -= 1
                continue
            event.fired = True
            self._pending -= 1
            self._now = event.time
            self._fired += 1
            if self._tracer is not None:
                from repro.obs.records import EventFired

                self._tracer.emit(
                    EventFired(
                        t=event.time,
                        label=event.label,
                        priority=int(event.priority),
                        seq=event.sequence,
                    )
                )
            arg = event.arg
            if arg is None:
                event.callback()
            else:
                event.callback(arg)
            return True

    def run_until(self, end_time: float) -> None:
        """Fire every event with ``time <= end_time``; advance the clock to it.

        The clock finishes at exactly *end_time* even if the last event fired
        earlier, mirroring a real system observed at a fixed horizon.
        """
        if not end_time >= self._now:
            raise SimulationError(
                f"cannot run to t={end_time}, already at t={self._now}"
            )
        self._guard_reentrancy()
        self._running = True
        try:
            while True:
                head = self.next_event_time()
                if head is None or head > end_time:
                    break
                self.step()
            self._now = float(end_time)
        finally:
            self._running = False

    def run(self, max_events: Optional[int] = None) -> int:
        """Fire events until the queues drain (or *max_events* fire).

        Returns the number of events fired by this call.
        """
        self._guard_reentrancy()
        self._running = True
        fired = 0
        step = self.step
        try:
            while (max_events is None or fired < max_events) and step():
                fired += 1
        finally:
            self._running = False
        return fired

    def next_event_time(self) -> Optional[float]:
        """Virtual time of the next pending event, or ``None`` if empty."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heappop(heap)
            self._garbage -= 1
        fifo = self._fifo
        while fifo and fifo[0].cancelled:
            fifo.popleft()
            self._garbage -= 1
        if fifo:
            event = fifo[0]
            if not (heap and heap[0] < (event.time, _DEFAULT, event.sequence)):
                return event.time
        return heap[0][0] if heap else None

    # --------------------------------------------------------------- helpers

    def _on_event_cancelled(self) -> None:
        """Event.cancel hook: keep the live counters exact; maybe compact.

        Compaction filters both queues in place and re-heapifies the heap
        (filtering keeps the FIFO sorted) — O(queued) and triggered only
        once garbage outnumbers live events, so its amortised cost per
        cancellation is O(1).
        """
        self._pending -= 1
        self._garbage += 1
        if self._garbage > COMPACT_MIN and self._garbage > self._pending:
            heap = self._heap
            heap[:] = [entry for entry in heap if not entry[3].cancelled]
            heapify(heap)
            fifo = self._fifo
            live = [event for event in fifo if not event.cancelled]
            fifo.clear()
            fifo.extend(live)
            self._garbage = 0

    def _guard_reentrancy(self) -> None:
        if self._running:
            raise SimulationError("engine is already running (reentrant run call)")
