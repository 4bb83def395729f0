"""The GA kernel's array programs: whole-population operators, lean costing.

At case-study sizes (pop 50, m ≈ 12, n = 16) the cost of a generation is
almost entirely **python/numpy call overhead**, not array arithmetic:
scalar RNG draws, per-individual loops and per-step temporaries.  This
module is the kernel with that overhead designed out; the generation loop
in :meth:`GAScheduler.evolve <repro.scheduling.ga.GAScheduler.evolve>`
drives it:

* operators are **pure array programs over the whole population**: the
  random choices (pair decisions, cuts, points, swap positions, bit
  flips) are *arguments*, drawn by the caller as arrays — the evolve
  loop draws them in multi-generation blocks, so RNG dispatch is O(1)
  per generation;
* :func:`vectorized_costs` is the kernel's one eq.-(8) evaluator.  It
  keeps its per-node state **node-major** (``(n, P)``) so the per-step
  masked maximum reduces along axis 0 of a contiguous array — measured
  ~3× cheaper than the row-major reduction at case-study sizes — and
  defers all idle-pocket accounting to whole-cube operations after the
  walk;
* cost evaluation runs once per generation over the **children only** —
  elites carry their costs forward structurally.

Float arithmetic is reordered relative to the scalar reference
(:func:`~repro.scheduling.schedule.build_schedule` +
:func:`~repro.scheduling.cost.schedule_cost`), so agreement is to
rounding, asserted by the property tests (see docs/performance.md).

Shape conventions match the packed population of
:class:`~repro.scheduling.ga.GAScheduler`: orderings are ``(P, m)`` row
permutations, masks are ``(P, m, n)`` bool cubes keyed by task row.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import ScheduleError
from repro.scheduling.batched import batched_mask_crossover, batched_order_splice

__all__ = [
    "bernoulli_indices",
    "vectorized_selection",
    "vectorized_children",
    "vectorized_mutation",
    "vectorized_costs",
]


def bernoulli_indices(
    rng: np.random.Generator, total: int, p: float
) -> np.ndarray:
    """Positions of the successes in *total* iid Bernoulli(*p*) trials.

    Distribution-exact: successes in an iid Bernoulli sequence sit at the
    cumulative sums of iid geometric gaps, so drawing ``~total·p`` gaps
    replaces a *total*-sized uniform draw + threshold — the dominant RNG
    cost of the mutation step (bit generation scales with the number of
    floats drawn, and ``total ≈ P·m·n`` while successes are ``~P``).
    Returned indices are strictly increasing (hence unique).
    """
    if p <= 0.0 or total <= 0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(total, dtype=np.int64)
    mean = total * p
    chunk = int(mean + 6.0 * np.sqrt(mean)) + 8
    positions = np.cumsum(rng.geometric(p, size=chunk)) - 1
    while positions[-1] < total:  # undershoot: extend the walk (rare)
        more = np.cumsum(rng.geometric(p, size=chunk)) + positions[-1]
        positions = np.concatenate([positions, more])
    return positions[: np.searchsorted(positions, total)]


def vectorized_selection(
    fitness: np.ndarray, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Stochastic remainder selection drawn with O(1) RNG calls — ``(count,)``.

    Distribution-identical to
    the object-level ``stochastic_remainder_selection`` in ``tests/oracles.py``:
    each individual receives ``floor(expected)`` deterministic copies and
    the remaining slots are weighted draws on the fractional remainders;
    the result is returned in shuffled order so consecutive entries pair
    for crossover.  Only the *stream* differs — copies are materialised
    with ``np.repeat``, the weighted draws are inverse-CDF samples
    (``searchsorted`` over the remainder cumsum, far cheaper than
    ``rng.choice`` with explicit probabilities), and the shuffle is one
    ``rng.permutation`` instead of per-index scalar draws.
    """
    f = np.asarray(fitness, dtype=float)
    total_f = f.sum()
    if total_f == 0.0:
        return rng.integers(0, f.size, size=count)
    expected = f * (count / total_f)
    guaranteed = expected.astype(np.int64)  # truncation == floor: f >= 0
    base = np.repeat(np.arange(f.size, dtype=np.int64), guaranteed)
    slots = count - base.size
    if slots > 0:
        remainder = expected - guaranteed
        cdf = np.cumsum(remainder)
        if cdf[-1] <= 0:
            extra = rng.integers(0, f.size, size=slots)
        else:
            extra = np.searchsorted(
                cdf, rng.random(slots) * cdf[-1], side="right"
            )
        base = np.concatenate([base, extra.astype(np.int64)])
    elif slots < 0:
        return rng.permutation(base)[:count]
    return rng.permutation(base)


def vectorized_children(
    order: np.ndarray,
    masks: np.ndarray,
    parents: np.ndarray,
    do_cross: np.ndarray,
    cuts: np.ndarray,
    points: np.ndarray,
) -> tuple:
    """The next generation's non-elite individuals, built batch-at-once.

    Consecutive selected *parents* pair up; ``do_cross``/``cuts``/
    ``points`` are the per-pair random choices, drawn by the caller as
    arrays (the evolve loop draws them in multi-generation blocks).  Both
    crossover directions go through a single fused order-splice /
    mask-crossover invocation — the a-head children occupy the first half
    of the batch, the b-head children the second; child order within a
    generation is immaterial to selection.
    Pairs that do not cross copy their parents through; an odd leftover
    parent is copied verbatim.

    Returns ``(child_order (C, m), child_masks (C, m, n))`` with
    ``C == parents.size``.
    """
    parents = np.asarray(parents, dtype=np.int64)
    pair_count = parents.size // 2
    m = order.shape[1]
    if pair_count == 0 or m == 0:
        return order[parents].copy(), masks[parents].copy()
    pa = parents[: 2 * pair_count : 2]
    pb = parents[1 : 2 * pair_count : 2]
    heads = np.concatenate([pa, pb])
    tails = np.concatenate([pb, pa])
    head_orders = order[heads]
    head_masks = masks[heads]
    cuts2 = np.concatenate([cuts, cuts])
    child_order = batched_order_splice(head_orders, order[tails], cuts2)
    child_masks = batched_mask_crossover(
        child_order, head_masks, masks[tails], np.concatenate([points, points])
    )
    plain = np.flatnonzero(~np.concatenate([do_cross, do_cross]))
    if plain.size:
        child_order[plain] = head_orders[plain]
        child_masks[plain] = head_masks[plain]
    if parents.size % 2:
        child_order = np.concatenate([child_order, order[parents[-1:]]])
        child_masks = np.concatenate([child_masks, masks[parents[-1:]]])
    return child_order, child_masks


def vectorized_mutation(
    order: np.ndarray,
    masks: np.ndarray,
    swap_sel: Optional[np.ndarray],
    swap_i: Optional[np.ndarray],
    swap_j: Optional[np.ndarray],
    flip_idx: Optional[np.ndarray],
    repair_picks_rng: np.random.Generator,
) -> None:
    """In-place two-part mutation from pre-drawn array choices.

    *swap_sel* (``(P,)`` bool) marks the individuals whose ordering
    mutates; each swaps positions ``i = swap_i`` and
    ``j = (i + 1 + swap_j) % m`` — with ``swap_j`` uniform on
    ``0..m-2`` this offset trick is uniform over ordered distinct pairs,
    the same distribution as a per-individual
    ``rng.choice(m, 2, replace=False)``.  *flip_idx* holds the **flat**
    bit positions to toggle in ``masks`` (unique indices into the
    flattened ``(P·m·n,)`` view — :func:`bernoulli_indices` output, the
    sparse equivalent of XORing a Bernoulli bit field).  Any of the
    choices may be ``None`` to skip that part.  The empty-mask
    legitimacy repair always runs (crossover and flips can zero a row);
    its rare node picks come from *repair_picks_rng*.
    """
    pop, m = order.shape
    n = masks.shape[2]
    if swap_sel is not None and m >= 2:
        rows = np.flatnonzero(swap_sel)
        if rows.size:
            i = swap_i[rows]
            j = (i + 1 + swap_j[rows]) % m
            vi = order[rows, i]
            order[rows, i] = order[rows, j]
            order[rows, j] = vi
    if flip_idx is not None and flip_idx.size:
        if masks.flags["C_CONTIGUOUS"]:
            masks.reshape(-1)[flip_idx] ^= True
        else:  # a flat view would silently copy; scatter through coordinates
            masks[np.unravel_index(flip_idx, masks.shape)] ^= True
    flat = masks.reshape(-1, n)
    empty = ~flat.any(axis=1)
    if empty.any():
        picks = repair_picks_rng.integers(n, size=int(empty.sum()))
        flat[np.flatnonzero(empty), picks] = True


#: Reusable evaluator state, keyed by problem shape.  ``evolve`` calls the
#: evaluator once per generation with an identical shape, so the working
#: arrays (the ``(n, P)`` free times, the ``(m, P)`` start/completion
#: tables, and the ``(m, n, P)`` step cube) are allocated once and
#: rewritten in place.  Every entry is fully overwritten before use, so
#: the cache carries no state between calls — it only skips allocator
#: traffic.  Process-local by construction (``run_many`` parallelism is
#: process-based).
_SCRATCH: dict = {}


def _cost_scratch(m: int, n: int, pop: int):
    """The per-shape working arrays of :func:`vectorized_costs`."""
    key = (m, n, pop)
    entry = _SCRATCH.get(key)
    if entry is None:
        if len(_SCRATCH) > 32:  # unbounded shapes would pin memory
            _SCRATCH.clear()
        entry = (
            np.empty((n, pop)),
            np.empty((m, pop)),
            np.empty((m, pop)),
            np.empty((m, n, pop)),
            np.ones(m * n),
            np.arange(pop)[:, None],
        )
        _SCRATCH[key] = entry
    return entry


def vectorized_costs(
    order: np.ndarray,
    masks: np.ndarray,
    dtable: np.ndarray,
    deadlines: np.ndarray,
    node_free_times: Sequence[float],
    ref_time: float,
    weights,
    idle_weighting: str = "linear",
    *,
    floors: Optional[np.ndarray] = None,
    preds: Optional[np.ndarray] = None,
) -> np.ndarray:
    """eq.-(8) cost of every individual — the whole-population evaluator.

    Computes the same quantity as the scalar reference (the schedule
    builder plus :func:`~repro.scheduling.cost.schedule_cost`) with a
    handful of numpy calls per task step, which is what matters at
    case-study sizes where call overhead dominates arithmetic:

    * everything runs in **time relative to** ``ref_time`` and
      **node-major layout**: free times are a contiguous ``(n, P)``
      array, so the per-step masked maximum is an axis-0 reduction
      (~3× cheaper than the row-major axis-1 reduction here);
    * the inner walk over the ``m`` (inherently sequential) task steps
      does only four array operations — masked free gather, start
      maximum, completion, and the free-time update; the masked gathers
      are retained as an ``(m, n, P)`` cube;
    * all idle-pocket accounting happens **after** the walk as whole-cube
      arithmetic: the cube row for step ``j`` holds ``frel·mask``, so
      ``Σ_sel frel = cube[j].sum()`` and ``Σ_sel frel² = (cube[j]²).sum()``
      (masks are boolean, so squaring preserves the selection), giving
      the linear weighting's pocket integral
      ``Σ (b² − a²)/2 = (count·start² − Σ_sel frel²)/2`` per step with no
      per-step reductions.

    Workflow constraints are optional and row-keyed, in the layout of
    :meth:`GAScheduler._constraint_arrays
    <repro.scheduling.ga.GAScheduler._constraint_arrays>`: *floors* is
    an ``(m,)`` vector of absolute earliest starts (``-inf`` where
    unconstrained) and *preds* an ``(m, maxP)`` matrix of predecessor
    rows padded with the sentinel row ``m``.  A task starts no earlier
    than its floor or than the completion of any predecessor placed
    before it in the ordering — the **completion track**, an
    ``(m + 1, P)`` table of completions by task row whose sentinel row
    stays ``-inf``.  A raised start only widens the idle pockets on the
    task's nodes (every selected node is still free by then), so the
    post-walk pocket accounting holds unchanged.

    Caller contract: every mask row selects at least one node (the
    operators' legitimacy repair runs *before* costing) and durations are
    finite and positive.  Float arithmetic is reordered relative to the
    reference, so agreement is to rounding (asserted with ``approx`` by
    the property tests), not bit-identity.
    """
    pop, m = order.shape
    n = masks.shape[2]
    free0 = np.maximum(np.asarray(node_free_times, dtype=float), ref_time)
    if free0.size != n:
        raise ScheduleError(
            f"node_free_times has {free0.size} entries, resource has {n}"
        )
    if m == 0:
        return np.zeros(pop)
    frel, starts, comps, cube, ones_mn, rows_idx = _cost_scratch(m, n, pop)
    # (m, n, pop): step-major, node-major per step, contiguous.
    smask = np.ascontiguousarray(masks[rows_idx, order].transpose(1, 2, 0))
    counts = smask.sum(axis=1)  # (m, pop)
    order_t = order.T
    durs = dtable[order_t, counts - 1]  # (m, pop)
    frel[:] = (free0 - ref_time)[:, None]  # (n, pop) — all >= 0 after clamp
    if floors is not None:
        floor_rel = (floors - ref_time)[order_t]  # (m, pop)
    if preds is not None:
        pred_rows = preds[order_t].transpose(0, 2, 1)  # (m, maxP, pop)
        track = np.full((m + 1, pop), -np.inf)
        cols = rows_idx[:, 0]
    for j in range(m):
        cj = cube[j]
        np.multiply(frel, smask[j], out=cj)  # frel >= 0, so 0-fill is safe
        np.maximum.reduce(cj, axis=0, out=starts[j])
        if floors is not None:
            np.maximum(starts[j], floor_rel[j], out=starts[j])
        if preds is not None:
            np.maximum(
                starts[j], track[pred_rows[j], cols].max(axis=0), out=starts[j]
            )
        np.add(starts[j], durs[j], out=comps[j])
        if preds is not None:
            track[order_t[j], cols] = comps[j]
        np.copyto(frel, comps[j][None, :], where=smask[j])
    omega = np.maximum.reduce(comps, axis=0)
    np.maximum(omega, 0.0, out=omega)
    theta = np.maximum(comps - (deadlines[order_t] - ref_time), 0.0).sum(axis=0)
    # Idle pockets [a, b] on selected nodes: a = frel before the step
    # (cube holds frel·mask), b = the step's start.
    if idle_weighting != "exponential":
        cube2d = cube.reshape(m * n, pop)
        cs = counts * starts
        # Σ count·start − Σ_sel frel; the flat matvec is the cheapest
        # (m·n, P) → (P,) reduction at these sizes (BLAS, one dispatch).
        idle_len = cs.sum(axis=0) - ones_mn @ cube2d
        if idle_weighting == "uniform":
            phi = idle_len
        else:  # linear
            cs *= starts
            sel_sq = np.einsum("ij,ij->j", cube2d, cube2d)
            idle_sq = (cs.sum(axis=0) - sel_sq) * 0.5
            safe = np.where(omega > 0, omega, 1.0)
            phi = np.where(omega > 0, idle_len - idle_sq / safe, 0.0)
    else:  # exponential: ∫ exp(−3t/ω) dt over each pocket, t relative
        rate = np.where(omega > 0, 3.0 / np.where(omega > 0, omega, 1.0), 0.0)
        r = rate[None, None, :]
        safe_r = np.where(r > 0, r, 1.0)
        has_gap = smask & (cube < starts[:, None, :])
        contrib = np.where(
            has_gap & (r > 0),
            (np.exp(-safe_r * cube) - np.exp(-safe_r * starts[:, None, :]))
            / safe_r,
            0.0,
        )
        phi = contrib.sum(axis=(0, 1))
    return (
        weights.makespan * omega + weights.idle * phi + weights.deadline * theta
    ) / weights.total
