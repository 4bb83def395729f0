"""Additional baseline schedulers: random and round-robin placement.

The paper compares its GA only against FIFO; the surrounding literature it
cites (Abraham et al.'s heuristics survey, batch systems like Condor/LSF)
routinely includes *random* and *round-robin* dispatch as the naive
baselines.  Both share :class:`~repro.scheduling.fifo.FIFOScheduler`'s
booking base (:class:`~repro.scheduling.fifo.BookingBase`) — tasks are
placed in arrival order and the decision never changes — so the policy
comparison bench isolates exactly one variable: how the allocation is
chosen.

* :class:`RandomScheduler` — a uniformly random non-empty node subset.
* :class:`RoundRobinScheduler` — the task's duration-optimal processor
  count ``k* = argmin_k t(k)``, taken as the next k nodes in cyclic order
  (classic striping; ignores current bookings when choosing nodes).
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from repro.scheduling.fifo import Allocation, BookingBase, SizeDurationFn

__all__ = ["StaticPlacement", "RandomScheduler", "RoundRobinScheduler"]


class StaticPlacement(Protocol):
    """The fixed-placement protocol shared by FIFO/random/round-robin."""

    @property
    def booked_free_times(self) -> np.ndarray:
        """Per-node booked-until times (copy)."""

    def sync_availability(self, node_free_times: Sequence[float]) -> None:
        """Raise bookings to at least the executor's actual availability."""

    def place(self, task_id: int, duration: SizeDurationFn, now: float) -> Allocation:
        """Book a fixed allocation for an arriving task."""

    def placement(self, task_id: int) -> Allocation:
        """The allocation previously booked for *task_id*."""

    def forget(self, task_id: int) -> None:
        """Drop a cancelled task's placement (bookings stay reserved)."""


class RandomScheduler(BookingBase):
    """Place each task on a uniformly random non-empty node subset.

    The weakest sensible baseline: no performance prediction, no load
    awareness — the allocation size and members are both random.
    """

    def __init__(self, n_nodes: int, rng: np.random.Generator) -> None:
        super().__init__(n_nodes)
        self._rng = rng

    def place(self, task_id: int, duration: SizeDurationFn, now: float) -> Allocation:
        """Book a random allocation for an arriving task."""
        k = int(self._rng.integers(1, self.n_nodes + 1))
        node_ids = tuple(
            int(i) for i in self._rng.choice(self.n_nodes, size=k, replace=False)
        )
        return self._book_nodes(task_id, node_ids, float(duration(k)), now)


class RoundRobinScheduler(BookingBase):
    """Stripe tasks across the nodes in cyclic order.

    Each task gets its duration-optimal processor count (so the baseline
    is performance-*aware* but not load-aware), starting at a cursor that
    advances by k per placement.
    """

    def __init__(self, n_nodes: int) -> None:
        super().__init__(n_nodes)
        self._cursor = 0

    def place(self, task_id: int, duration: SizeDurationFn, now: float) -> Allocation:
        """Book the next k nodes in cyclic order, k = argmin duration."""
        durations = [float(duration(k)) for k in range(1, self.n_nodes + 1)]
        k = int(np.argmin(durations)) + 1
        node_ids = tuple(
            (self._cursor + offset) % self.n_nodes for offset in range(k)
        )
        self._cursor = (self._cursor + k) % self.n_nodes
        return self._book_nodes(task_id, node_ids, durations[k - 1], now)

    def snapshot_state(self) -> dict:
        state = super().snapshot_state()
        state["cursor"] = self._cursor
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self._cursor = int(state["cursor"])
