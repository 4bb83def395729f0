"""Counter metrics for the observability layer.

A :class:`MetricsRegistry` hands out named :class:`Counter` instances on
first use.  Everything is deterministic — counts only, no wall-clock
rates — so a metrics snapshot is as replayable as the trace stream it
accompanies.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import ValidationError

__all__ = ["Counter", "MetricsRegistry"]


class Counter:
    """A monotonically increasing integer counter."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0

    @property
    def value(self) -> int:
        """The current count."""
        return self._value

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (>= 0) to the counter."""
        if amount < 0:
            raise ValidationError(f"counter increment must be >= 0, got {amount}")
        self._value += amount


class MetricsRegistry:
    """Named counters, created on first use."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        """The (cached) counter named *name*."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def snapshot(self) -> Dict[str, object]:
        """All metrics as one plain dict, names sorted."""
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
        }
