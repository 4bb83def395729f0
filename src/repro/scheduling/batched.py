"""Whole-population batched forms of the two-part genetic operators.

The object-level operators in ``tests/oracles.py`` are the *reference*
implementations — clear, validated, and kept for the property tests.  These functions re-express the same operators as single array
programs over a whole batch of parent pairs; the generation loop of
:mod:`repro.scheduling.vectorized` builds every child through them.

All functions are pure: the random choices (cut locations, crossover
points, insert positions) are *arguments*, drawn by the caller, which is
what lets the property tests assert exact agreement with the reference
operators.  The splice and crossover sit on the hot loop and skip input
validation; callers pass well-formed batches.

Shape conventions (B = batch, m = tasks, n = nodes):

* orderings are ``(B, m)`` int arrays of task *rows* — each row of the
  batch is a permutation of ``0..m-1``;
* masks are ``(B, m, n)`` bool arrays keyed by task row (not by position),
  preserving "the node mapping associated with a particular task from one
  generation to the next".
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError

__all__ = [
    "batched_order_splice",
    "batched_mask_crossover",
    "batched_insert",
]


def batched_order_splice(
    orders_a: np.ndarray, orders_b: np.ndarray, cuts: np.ndarray
) -> np.ndarray:
    """Splice each pair of orderings at its cut — the batched order splice.

    For every batch row ``b`` the child is ``orders_a[b, :cuts[b]]``
    followed by the remaining rows in ``orders_b[b]``'s order, exactly as
    the reference ``order_splice`` in ``tests/oracles.py`` builds it.  Membership
    of the head is resolved through a scattered lookup table rather than a
    per-pair ``np.isin``, so the whole batch is O(B·m).

    Parameters
    ----------
    orders_a, orders_b:
        ``(B, m)`` row permutations (head source / tail source).
    cuts:
        ``(B,)`` splice locations in ``0..m``.
    """
    batch, m = orders_a.shape
    positions = np.arange(m)
    rows = np.arange(batch)[:, None]
    head_mask = positions[None, :] < cuts[:, None]  # (B, m)
    # Row-indexed lookup table: in_head[b, r] == r appears in a's head.
    in_head = np.zeros((batch, m), dtype=bool)
    in_head[rows, orders_a] = head_mask
    keep = ~in_head[rows, orders_b]  # b's rows to keep
    # Kept elements of b land after the head, preserving b's order; they
    # fill every tail slot exactly (m − cut kept rows per pair), so the
    # scatter below covers everything the head copy leaves unset.
    dest = cuts[:, None] + np.cumsum(keep, axis=1) - 1
    children = np.empty_like(orders_a)
    np.copyto(children, orders_a, where=head_mask)
    b_idx, j_idx = np.nonzero(keep)
    children[b_idx, dest[b_idx, j_idx]] = orders_b[b_idx, j_idx]
    return children


def batched_mask_crossover(
    child_orders: np.ndarray,
    masks_first: np.ndarray,
    masks_second: np.ndarray,
    points: np.ndarray,
) -> np.ndarray:
    """Single-point mask crossover for a batch of children, keyed by row.

    The reference ``cross_maps`` gathers each parent's row-keyed masks *in
    the child's task order* (the paper's "reordering ... necessary to
    preserve the node mapping associated with a particular task"), crosses
    the flattened strings at the shared point, and scatters back under row
    keys.  Row ``r``'s bit for node ``j`` therefore comes from the first
    parent exactly when ``pos(r) * n + j < point``, where ``pos(r)`` is
    ``r``'s position in the child ordering — so the whole gather/cross/
    scatter collapses to one inverse permutation and an ``np.where`` over
    the row-keyed masks, never materialising the position-ordered view.

    Parameters
    ----------
    child_orders:
        ``(B, m)`` child orderings (from :func:`batched_order_splice`).
    masks_first, masks_second:
        ``(B, m, n)`` row-keyed parent masks; ``masks_first`` supplies the
        flat prefix up to each point, ``masks_second`` the suffix.
    points:
        ``(B,)`` crossover points in ``0..m*n``.

    Note: empty-mask repair is *not* applied here; the mutation step owns
    the legitimacy repair.
    """
    batch, m, n = masks_first.shape
    rows = np.arange(batch)[:, None]
    inverse = np.empty((batch, m), dtype=np.int32)
    inverse[rows, child_orders] = np.arange(m, dtype=np.int32)[None, :]
    # Flat crossover-string index of (task row r, node j): pos(r)*n + j.
    # ``pos*n + j < point`` ⟺ ``pos < ceil((point − j) / n)``, so the cut
    # collapses to a per-(pair, node) position threshold — two small
    # ``(B, n)`` integer ops instead of materialising the flat index as an
    # ``(B, m, n)`` cube.  Integer math is exact, so the result is
    # byte-identical to the flat-index comparison; the suffix copy +
    # masked prefix overwrite replaces ``np.where``, which benchmarks ~4×
    # slower on broadcast operands at these sizes.
    thresholds = (points[:, None] - np.arange(n, dtype=np.int32) + n - 1) // n
    children = masks_second.copy()
    np.copyto(
        children,
        masks_first,
        where=inverse[:, :, None] < thresholds.astype(np.int32)[:, None, :],
    )
    return children


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
    before = out_pos[None, :] < positions[:, None]
    # Source column: k for the prefix, k-1 for the suffix; the insert slot
    # itself is overwritten below, so its clipped gather value is irrelevant.
    src = np.where(before, out_pos[None, :], out_pos[None, :] - 1)
    src = np.clip(src, 0, m - 1)
    children = orders[np.arange(batch)[:, None], src]
    children[out_pos[None, :] == positions[:, None]] = value
    return children
