"""Evaluation reuse for the GA hot loop: the event-level cost cache.

The GA re-costs its population with eq. (8) and the grid triggers
``evolve`` on *every* task arrival and completion, immediately followed
by a dispatch-side ``best_solution`` under the same availability.  Two
facts make reuse safe:

* eq. (8) is a **pure function** of ``(order row, mask row,
  node_free_times, ref_time)`` — no RNG, no hidden state;
* within one scheduling event the population and the availability are
  unchanged between ``evolve`` returning and ``best_solution`` running.

So the final cost vector of an ``evolve`` call answers the following
``best_solution`` without another evaluation, keyed by
:func:`clamp_availability`; within ``evolve`` the elites carry their costs
between generations structurally.  This module holds that key and the
counters exposed as :attr:`GAScheduler.stats
<repro.scheduling.ga.GAScheduler.stats>`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Sequence, Tuple

import numpy as np

__all__ = ["EvalReuseStats", "clamp_availability"]


@dataclass
class EvalReuseStats:
    """Counters that make the kernel's costing observable, not asserted.

    ``rows_costed`` splits exactly into ``rows_evaluated`` (ran through
    the eq.-(8) evaluator) and ``carry_hits`` (an elite's cost carried
    into the next generation of the same ``evolve`` call).
    """

    #: Invocations of the eq.-(8) evaluator (any row count).
    evaluate_calls: int = 0
    #: Individuals whose cost was requested.
    rows_costed: int = 0
    #: Individuals actually (re-)evaluated.
    rows_evaluated: int = 0
    #: Elite costs carried forward into the next generation of the same
    #: ``evolve`` call.
    carry_hits: int = 0
    #: ``best_solution`` calls answered from the event-level cost cache.
    event_cache_hits: int = 0
    #: ``best_solution`` calls that had to recompute.
    event_cache_misses: int = 0
    #: Individuals replaced by a winning warm-start list-scheduling seed
    #: (the once-per-``evolve`` injection; see
    #: :mod:`repro.scheduling.warmstart`).
    warmstart_seeds: int = 0

    def snapshot_counters(self) -> Dict[str, int]:
        """The raw counter fields alone (checkpoint support)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def restore_counters(self, counters: Dict[str, int]) -> None:
        """Set every counter field from a :meth:`snapshot_counters` dict.

        Counters absent from *counters* reset to their defaults, so
        checkpoints written before a counter existed stay restorable.
        """
        for f in fields(self):
            setattr(self, f.name, int(counters.get(f.name, f.default)))


def clamp_availability(
    node_free_times: Sequence[float], ref_time: float
) -> Tuple[np.ndarray, Tuple[bytes, float]]:
    """The free times eq. (8) sees, and the availability key they have.

    eq. (8) only ever sees ``max(node_free_times, ref_time)`` (nothing can
    start in the past), so the key is the *clamped* free-time vector plus
    ``ref_time`` (which additionally shifts ω and the idle weighting).
    Two calls with equal keys are guaranteed bit-identical cost vectors
    for an unchanged population.  The one definition behind both
    :class:`~repro.scheduling.vectorized.CostEvaluator` (which costs
    against the clamped vector and carries its key) and the event-level
    cost cache (which compares keys), so the two cannot drift apart.
    """
    free0 = np.maximum(np.asarray(node_free_times, dtype=float), ref_time)
    return free0, (free0.tobytes(), float(ref_time))
