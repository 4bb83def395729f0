"""Event objects for the discrete-event engine.

An :class:`Event` pairs a virtual firing time with a callback and, for a
callback that takes one, its argument.
Events are totally ordered by ``(time, priority, sequence)`` so that
simultaneous events fire deterministically: lower priority value first, then
insertion order.  Determinism matters — the paper's experiments are seeded
and must replay identically.

``Event`` is a hand-rolled ``__slots__`` class rather than a dataclass: the
engine allocates one per scheduled callback, which makes construction and
attribute access the hottest allocation path in the simulator (see
``engine_event_alloc`` in the perf suite for the measured win).  The
engine never calls :meth:`Event.__lt__` — its heap holds
``(time, priority, sequence, event)`` tuples that compare in C, and its
FIFO holds events in key order by construction — but the method is kept
so the single-heap reference engine can order raw events.
"""

from __future__ import annotations

from typing import Callable, Optional

__all__ = ["Event", "Priority"]


class Priority:
    """Well-known priority bands for simultaneous events.

    Completions fire before arrivals at the same instant so freed processors
    are visible to the scheduler that handles the arrival; monitoring and
    advertisement run last, observing the settled state.
    """

    COMPLETION = 0
    ARRIVAL = 10
    SCHEDULING = 20
    ADVERTISEMENT = 30
    MONITORING = 40
    DEFAULT = 50


class Event:
    """A scheduled callback; ordered by ``(time, priority, sequence)``.

    Attributes
    ----------
    time / priority / sequence:
        The total-order key.  ``sequence`` is engine-assigned and unique,
        so ties never fall through to later fields.
    callback:
        Callable fired when the event is due: ``callback(arg)`` if the
        event carries an argument, ``callback()`` otherwise.
    arg:
        The callback's one argument, or ``None`` for a zero-argument
        callback.  A message delivery carries its message here, so the
        transport schedules one shared bound method for every message.
    label:
        Debug label (also recorded in traces).
    cancelled:
        Lazily honoured: the engine skips cancelled events when popped and
        compacts its heap when too many accumulate.
    fired:
        Set by the engine the moment the event is popped to fire, so a
        ``cancel()`` from inside its own callback (e.g. a periodic process
        stopping itself) no longer counts as a pending-event cancellation.
    on_cancel:
        Engine hook invoked on the first effective cancellation only —
        keeps the engine's live pending counter exact without re-scanning
        the heap.
    """

    __slots__ = (
        "time",
        "priority",
        "sequence",
        "callback",
        "label",
        "cancelled",
        "fired",
        "on_cancel",
        "arg",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        sequence: int,
        callback: Callable[..., None],
        label: str = "",
        on_cancel: Optional[Callable[[], None]] = None,
        arg: object = None,
    ) -> None:
        # All parameters are positional-capable: the engine constructs one
        # Event per scheduled callback, and positional calls measurably
        # outrun keyword calls on this hottest allocation path.
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.label = label
        self.cancelled = False
        self.fired = False
        self.on_cancel = on_cancel
        self.arg = arg

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.sequence < other.sequence

    def cancel(self) -> None:
        """Mark the event cancelled; the engine will skip it when popped.

        Idempotent, and a no-op once the event has fired; the engine's
        cancellation hook runs at most once.
        """
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self.on_cancel is not None:
            self.on_cancel()

    # Both engines return events directly as their own handles (one object
    # allocation per schedule instead of two), so Event carries the full
    # handle surface.

    @property
    def pending(self) -> bool:
        """Whether the event is still waiting in the heap (not fired/cancelled)."""
        return not (self.fired or self.cancelled)

    def descriptor(self) -> dict:
        """The ``(time, priority, sequence, label)`` identity of this event.

        Checkpoints store descriptors instead of handles; restore re-creates
        the event with its *original* triple via
        :meth:`~repro.sim.engine.Engine.restore_event`, so heap order — and
        therefore replay — is preserved exactly.
        """
        return {
            "time": self.time,
            "priority": self.priority,
            "sequence": self.sequence,
            "label": self.label,
        }
