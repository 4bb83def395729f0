"""Periodic activities layered on the engine.

Agents pull service information every 10 seconds and the resource monitor
polls hosts every 5 minutes (§2.2, §4.1); :class:`PeriodicProcess` models
exactly that pattern — a fixed-interval callback with start/stop control.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.engine import Engine
from repro.sim.events import Event, Priority
from repro.utils.validation import check_positive

__all__ = ["PeriodicProcess"]


class PeriodicProcess:
    """A callback fired at a fixed virtual-time interval.

    Parameters
    ----------
    engine:
        The simulation engine to schedule on.
    interval:
        Seconds between firings.
    callback:
        Zero-argument callable invoked each period.
    priority:
        Event priority band (see :class:`~repro.sim.events.Priority`).
    fire_immediately:
        If true, the first firing happens at ``start()`` time rather than
        one interval later.
    label:
        Debug label attached to scheduled events.
    """

    def __init__(
        self,
        engine: Engine,
        interval: float,
        callback: Callable[[], None],
        *,
        priority: int = Priority.DEFAULT,
        fire_immediately: bool = False,
        label: str = "periodic",
    ) -> None:
        check_positive(interval, "interval")
        self._engine = engine
        self._interval = float(interval)
        self._callback = callback
        self._priority = priority
        self._fire_immediately = fire_immediately
        self._label = label
        self._handle: Optional[Event] = None
        self._running = False
        # One bound method shared by every occurrence instead of a fresh
        # one per re-arm (one GC-tracked allocation fewer per period).
        self._fire_hook = self._fire

    @property
    def running(self) -> bool:
        """Whether the process is currently scheduled."""
        return self._running

    def start(self) -> None:
        """Begin periodic firing; idempotent if already running."""
        if self._running:
            return
        self._running = True
        delay = 0.0 if self._fire_immediately else self._interval
        self._handle = self._engine.schedule_in(
            delay, self._fire_hook, priority=self._priority, label=self._label
        )

    def stop(self) -> None:
        """Stop firing; pending occurrence is cancelled.  Idempotent."""
        self._running = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        if not self._running:
            return
        self._callback()
        # Re-arm only if the callback did not stop the process.
        if self._running:
            self._handle = self._engine.schedule_in(
                self._interval,
                self._fire_hook,
                priority=self._priority,
                label=self._label,
            )

    # ------------------------------------------------------------- checkpoint

    def snapshot_state(self) -> dict:
        """Running flag and the pending occurrence, if any."""
        pending = None
        if self._handle is not None and not self._handle.cancelled:
            pending = self._handle.descriptor()
        return {"running": self._running, "pending": pending}

    def restore_state(self, state: dict) -> None:
        """Re-arm from a snapshot without firing.

        The pending occurrence is re-created with its original event
        identity (see :meth:`Engine.restore_event`); a stopped process stays
        stopped with no event scheduled.
        """
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        self._running = bool(state["running"])
        pending = state.get("pending")
        if pending is not None:
            self._handle = self._engine.restore_event(pending, self._fire_hook)
