"""List-scheduling warm starts for the GA population (eq. 10).

The paper's GA evolves continuously in real time; an event-driven run only
affords a handful of generations per scheduling event, so how good the
population is *before* evolution matters as much as how fast a generation
runs.  Cheap list-scheduling heuristics are the standard complement to a
vectorised kernel — SAMPO's ``GeneticScheduler`` seeds its population from
HEFT schedules, and Savvas & Kechadi's dynamic cluster heuristics make the
same argument for iterative schedulers: fewer generations to converge is
as good as faster generations.

This module builds those seeds from the same inputs the GA already holds:

* ``dtable`` — the ``(m, n)`` predicted-duration table (``dtable[r, k-1]``
  is task row *r* on *k* nodes, the PACE ``t(k)`` row of eq. 10);
* ``deadlines`` — the ``(m,)`` absolute deadline vector;
* the node availability ``(node_free_times, ref_time)`` of the current
  scheduling event.

A *seed* is one ``(ordering, masks)`` pair in the packed representation of
:class:`~repro.scheduling.ga.GAScheduler` — a row permutation plus a
row-keyed ``(m, n)`` bool allocation matrix.  Orderings come from three
deterministic priority rules (arrival order, earliest deadline first, and
min-ETA greedy — smallest ``min_k t(k)`` first, the eq.-(10) estimate) plus
rng-perturbed variants for diversity; every ordering is mapped with the
completion-optimal greedy allocator.  Determinism: given equal inputs and
an equal rng state, the seeded population is identical — property-tested,
including through a checkpoint/restore round-trip.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ValidationError

__all__ = [
    "greedy_allocation_masks",
    "greedy_allocation_masks_batch",
    "warmstart_orders",
]


def greedy_allocation_masks_batch(
    orders: np.ndarray,
    dtable: np.ndarray,
    node_free_times: Sequence[float],
    ref_time: float,
) -> np.ndarray:
    """Completion-optimal masks for a batch of orders — ``(S, m, n)`` bool.

    Walks every ordering's tasks in lockstep (the walks are independent,
    so each of the ``m`` steps is a whole-batch array program); each task
    is allocated the earliest-free node subset minimising its completion
    time, the same argument as
    :func:`repro.scheduling.fifo.earliest_free_allocation`: on a
    homogeneous resource only the k earliest-free nodes need considering
    for each size k, so the per-task choice is an argmin over the
    cumulative-max of the sorted free times plus the task's ``t(k)`` row.
    """
    orders = np.asarray(orders, dtype=np.int64)
    s, m = orders.shape
    free0 = np.maximum(np.asarray(node_free_times, dtype=float), ref_time)
    n = free0.size
    free = np.empty((s, n))
    free[:] = free0[None, :]
    masks = np.zeros((s, m, n), dtype=bool)
    srange = np.arange(s)
    positions = np.arange(n)[None, :]
    for step in range(m):
        rows = orders[:, step]
        idx = np.argsort(free, axis=1, kind="stable")
        start_k = np.maximum.accumulate(
            np.take_along_axis(free, idx, axis=1), axis=1
        )
        comp_k = start_k + dtable[rows]
        kbest = np.argmin(comp_k, axis=1)  # chosen size − 1, per ordering
        comp_best = comp_k[srange, kbest]
        chosen = np.zeros((s, n), dtype=bool)
        chosen[srange[:, None], idx] = positions <= kbest[:, None]
        masks[srange, rows] = chosen
        free = np.where(chosen, comp_best[:, None], free)
    return masks


def greedy_allocation_masks(
    order_rows: np.ndarray,
    dtable: np.ndarray,
    node_free_times: Sequence[float],
    ref_time: float,
) -> np.ndarray:
    """Completion-optimal masks for one fixed task order — ``(m, n)`` bool.

    The single-ordering view of :func:`greedy_allocation_masks_batch`
    (also the memetic re-map used by
    :meth:`~repro.scheduling.ga.GAScheduler.greedy_mapping`).
    """
    order_rows = np.asarray(order_rows, dtype=np.int64)
    return greedy_allocation_masks_batch(
        order_rows[None, :], dtable, node_free_times, ref_time
    )[0]


def warmstart_orders(
    dtable: np.ndarray,
    deadlines: np.ndarray,
    count: int,
    rng: np.random.Generator,
    *,
    priorities: "np.ndarray | None" = None,
) -> np.ndarray:
    """*count* candidate orderings — ``(count, m)`` row permutations.

    The first three (as *count* allows) are the deterministic priority
    rules, in fixed precedence:

    1. **min-ETA greedy** — ascending ``min_k t(k)``, the eq.-(10)
       completion estimate (shortest-expected-task-first);
    2. **earliest deadline first** — ascending δ;
    3. **arrival order** — the identity row permutation (row order is
       insertion order until the first swap-remove).

    With *priorities* given (workflow b-levels), a **descending-priority**
    rule — the classic list-scheduling order: most critical-path work
    first, arrival order on ties — is prepended as rule 0.  ``None``
    (the default) keeps the rule list, and therefore the rng draws,
    identical to the pre-workflow behaviour.

    Remaining slots are perturbed copies: a base rule is cycled through
    and two random positions are swapped per extra candidate, giving the
    GA nearby-but-distinct starting points.  All stochastic choices come
    from *rng*, so the result is a pure function of the inputs and the
    rng state.
    """
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count}")
    m = dtable.shape[0]
    base = [
        np.argsort(dtable.min(axis=1), kind="stable"),
        np.argsort(deadlines, kind="stable"),
        np.arange(m, dtype=np.int64),
    ]
    if priorities is not None:
        base.insert(0, np.argsort(-np.asarray(priorities, dtype=float), kind="stable"))
    orders = np.empty((count, m), dtype=np.int64)
    for i in range(min(count, len(base))):
        orders[i] = base[i]
    for i in range(len(base), count):
        orders[i] = base[i % len(base)]
        if m >= 2:
            a, b = rng.choice(m, size=2, replace=False)
            orders[i, a], orders[i, b] = orders[i, b], orders[i, a]
    return orders
