"""Whole-population batched forms of the two-part genetic operators.

The object-level operators in ``tests/oracles.py`` are the *reference*
implementations — clear, validated, and kept for the property tests.  These functions re-express the same operators as single array
programs over a whole batch of parent pairs; the generation loop of
:mod:`repro.scheduling.vectorized` builds every child through them.

All functions are pure: the random choices (cut locations, crossover
points, insert positions) are *arguments*, drawn by the caller, which is
what lets the property tests assert exact agreement with the reference
operators.  The splice and crossover sit on the hot loop: they skip input
validation (callers pass well-formed batches) and can write into an
``out`` array the caller owns.

Shape conventions (B = batch, m = tasks, n = nodes):

* orderings are ``(B, m)`` int arrays of task *rows* — each row of the
  batch is a permutation of ``0..m-1``;
* masks are ``(B, m, n)`` bool arrays keyed by task row (not by position),
  preserving "the node mapping associated with a particular task from one
  generation to the next".
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ValidationError

__all__ = [
    "batched_order_splice",
    "crossover_thresholds",
    "batched_mask_crossover",
    "batched_insert",
]


def batched_order_splice(
    orders_a: np.ndarray,
    orders_b: np.ndarray,
    cuts: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Splice each pair of orderings at its cut — the batched order splice.

    For every batch row ``b`` the child is ``orders_a[b, :cuts[b]]``
    followed by the remaining rows in ``orders_b[b]``'s order, exactly as
    the reference ``order_splice`` in ``tests/oracles.py`` builds it.  The
    child is one sort: each of ``orders_b[b]``'s entries is keyed by its
    position in ``orders_a[b]`` when that position falls in the head, and
    by ``m`` plus its own position otherwise — head rows then come first
    in head order and the rest follow in b's order.  The keys are
    distinct, so the sort is unique, and the whole batch is O(B·m log m)
    in a handful of array calls.

    Parameters
    ----------
    orders_a, orders_b:
        ``(B, m)`` row permutations (head source / tail source).
    cuts:
        ``(B,)`` splice locations in ``0..m``.
    out:
        Optional ``(B, m)`` destination.
    """
    batch, m = orders_a.shape
    positions = np.arange(m)
    rows = np.arange(batch)[:, None]
    pos_a = np.empty((batch, m), dtype=orders_a.dtype)
    pos_a[rows, orders_a] = positions
    at_a = pos_a[rows, orders_b]  # a-position of each of b's entries
    key = np.where(at_a < cuts[:, None], at_a, positions + m)
    children = orders_b[rows, key.argsort(axis=1)]
    if out is None:
        return children
    out[...] = children
    return out


def crossover_thresholds(points: np.ndarray, n: int) -> np.ndarray:
    """Flat crossover points as per-(pair, node) position thresholds.

    Mask crossover takes row ``r``'s bit for node ``j`` from the first
    parent exactly when ``pos(r) * n + j < point`` (``pos(r)`` is ``r``'s
    position in the child ordering), and ``pos*n + j < point`` ⟺
    ``pos < ceil((point − j) / n)`` — so a point collapses to one int32
    threshold per node.  *points* has any leading shape ``(..., )``; the
    result is ``(..., n)``.  Integer math is exact, so comparing positions
    with thresholds is byte-identical to comparing flat indices with the
    point.  With ``point = q·n + r`` (``0 ≤ r < n``) the threshold is
    ``q + (j < r)``, so only the points are divided, not every node's
    entry.
    """
    q, r = np.divmod(points.astype(np.int32), n)
    thresholds = (np.arange(n, dtype=np.int32) < r[..., None]).astype(np.int32)
    thresholds += q[..., None]
    return thresholds


def batched_mask_crossover(
    child_orders: np.ndarray,
    masks_first: np.ndarray,
    masks_second: np.ndarray,
    thresholds: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Single-point mask crossover for a batch of children, keyed by row.

    The reference ``cross_maps`` gathers each parent's row-keyed masks *in
    the child's task order* (the paper's "reordering ... necessary to
    preserve the node mapping associated with a particular task"), crosses
    the flattened strings at the shared point, and scatters back under row
    keys.  Row ``r``'s bit for node ``j`` therefore comes from the first
    parent exactly when ``pos(r) < thresholds[j]``
    (:func:`crossover_thresholds`), where ``pos(r)`` is ``r``'s position
    in the child ordering — so the whole gather/cross/scatter collapses to
    one inverse permutation and a masked copy over the row-keyed masks,
    never materialising the position-ordered view or the ``(B, m, n)``
    flat index.  The suffix copy + masked prefix overwrite replaces
    ``np.where``, which benchmarks ~4× slower on broadcast operands at
    these sizes.

    Parameters
    ----------
    child_orders:
        ``(B, m)`` child orderings (from :func:`batched_order_splice`).
    masks_first, masks_second:
        ``(B, m, n)`` row-keyed parent masks; ``masks_first`` supplies the
        flat prefix up to each point, ``masks_second`` the suffix.
    thresholds:
        ``(B, n)`` int32 thresholds of the crossover points.
    out:
        Optional ``(B, m, n)`` destination; it may be ``masks_second``
        itself, which then becomes the children in place.

    Note: empty-mask repair is *not* applied here; the mutation step owns
    the legitimacy repair.
    """
    batch, m, n = masks_first.shape
    if out is None:
        out = masks_second.copy()
    elif out is not masks_second:
        np.copyto(out, masks_second)
    if m == 1:  # every child's one task sits at position 0
        take_first = (thresholds > 0)[:, None, :]
    else:
        inverse = np.empty((batch, m), dtype=np.int32)
        inverse[np.arange(batch)[:, None], child_orders] = np.arange(
            m, dtype=np.int32
        )
        take_first = inverse[:, :, None] < thresholds[:, None, :]
    np.copyto(out, masks_first, where=take_first)
    return out


def batched_insert(
    orders: np.ndarray, positions: np.ndarray, value: int
) -> np.ndarray:
    """Insert *value* into every ordering at its per-row position.

    The batched form of a per-individual ``np.insert`` loop, used by
    :meth:`GAScheduler.add_task`: row ``i`` of the result equals
    ``np.insert(orders[i], positions[i], value)``.

    Parameters
    ----------
    orders:
        ``(B, m)`` orderings.
    positions:
        ``(B,)`` insert positions in ``0..m``.
    value:
        The row index to splice in (the new task's row).
    """
    orders = np.asarray(orders)
    positions = np.asarray(positions)
    batch, m = orders.shape
    if positions.shape != (batch,):
        raise ValidationError(
            f"positions must have shape ({batch},), got {positions.shape}"
        )
    if m == 0:
        return np.full((batch, 1), value, dtype=orders.dtype)
    out_pos = np.arange(m + 1)
    # Source column: k for the prefix, k-1 for the suffix.  The insert slot
    # itself is overwritten below, so what it gathers is irrelevant (at
    # slot 0 that is column -1, the last one).
    src = (out_pos < positions[:, None]) + (out_pos - 1)
    children = orders[np.arange(batch)[:, None], src]
    children[out_pos == positions[:, None]] = value
    return children
