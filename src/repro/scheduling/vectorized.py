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
  loop draws them in blocks of up to 32 generations and turns each block
  into operator inputs once (:func:`pair_choices`, :func:`swap_choices`),
  so RNG dispatch and input preparation are O(1) per generation;
* the children builder and the mutation write into arrays the caller
  owns, so a generation fills one fresh ``(P, m)`` / ``(P, m, n)`` /
  ``(P,)`` set — elites first, then children — with no concatenation;
* :class:`CostEvaluator` is the kernel's one eq.-(8) evaluator.  It is
  bound to one availability (clamped free times, relative deadlines and
  floors, weights, scratch buffers), which ``evolve`` sets up once per
  call; it keeps its per-node state **node-major** (``(n, P)``) so the
  per-step masked maximum reduces along axis 0 of a contiguous array —
  measured ~3× cheaper than the row-major reduction at case-study sizes
  — and defers all idle-pocket accounting to whole-cube operations after
  the walk;
* cost evaluation runs once per generation over the **children only** —
  elites carry their costs forward structurally.

What is left is the dispatch floor.  The kernel calls ndarray methods
and ``ufunc.reduce`` directly, never NumPy's Python-level wrappers
(``np.take``, ``np.argsort``, ``ndarray.sum`` …), which run the same
kernels behind a few Python frames each.  At one queued task a generation
then makes about 49 calls into NumPy's C functions and methods and 24
Python-level calls (``sys.setprofile`` counts over 10-generation
``evolve`` calls, set-up included; ufunc applications are not counted):
82 and 86 before (docs/performance.md, "The GA generation floor").

Float arithmetic is reordered relative to the scalar reference
(:func:`~repro.scheduling.schedule.build_schedule` +
:func:`~repro.scheduling.cost.schedule_cost`), so agreement is to
rounding, asserted by the property tests (see docs/performance.md).

Shape conventions match the packed population of
:class:`~repro.scheduling.ga.GAScheduler`: orderings are ``(P, m)`` row
permutations, masks are ``(P, m, n)`` bool cubes keyed by task row.
"""

from __future__ import annotations

import math
import operator
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ScheduleError
from repro.scheduling.batched import (
    batched_mask_crossover,
    batched_order_splice,
    crossover_thresholds,
)
from repro.scheduling.evalreuse import clamp_availability

__all__ = [
    "bernoulli_indices",
    "vectorized_selection",
    "pair_choices",
    "pair_index",
    "swap_choices",
    "vectorized_children",
    "vectorized_mutation",
    "CostEvaluator",
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
    chunk = int(mean + 6.0 * math.sqrt(mean)) + 8
    positions = rng.geometric(p, size=chunk).cumsum() - 1
    while positions[-1] < total:  # undershoot: extend the walk (rare)
        more = rng.geometric(p, size=chunk).cumsum() + positions[-1]
        positions = np.concatenate([positions, more])
    return positions[: positions.searchsorted(total)]


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
    ``rng.shuffle`` instead of per-index scalar draws.
    """
    f = np.asarray(fitness, dtype=float)
    total_f = np.add.reduce(f)
    if total_f == 0.0:
        return rng.integers(0, f.size, size=count)
    expected = f * (count / total_f)
    guaranteed = expected.astype(np.int64)  # truncation == floor: f >= 0
    base = np.arange(f.size, dtype=np.int64).repeat(guaranteed)
    slots = count - base.size
    if slots > 0:
        remainder = expected - guaranteed
        cdf = remainder.cumsum()
        if cdf[-1] <= 0:
            extra = rng.integers(0, f.size, size=slots)
        else:
            extra = cdf.searchsorted(rng.random(slots) * cdf[-1], side="right")
        base = np.concatenate([base, extra])
    # ``base`` is ours, so shuffle it in place: the same draws and result
    # as ``rng.permutation(base)`` without its copy.
    rng.shuffle(base)
    return base[:count] if slots < 0 else base


def pair_choices(
    cross: np.ndarray, cuts: np.ndarray, points: np.ndarray, m: int, n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """A block of per-pair crossover draws as :func:`vectorized_children` takes them.

    *cross* (bool), *cuts* (``0..m``) and *points* (``0..m·n``) are
    ``(B, pairs)`` draws, one row per generation.  A pair that does not
    cross gets cut ``m`` and point ``m·n``: the splice then keeps the
    whole head ordering and the mask crossover the whole head mask, which
    is exactly a non-crossing pair's children, so the builder needs no
    per-generation fix-up.  Both head directions share their pair's
    choices, so the results come back doubled — ``(B, 2·pairs)`` cuts and
    ``(B, 2·pairs, n)`` int32 position thresholds
    (:func:`~repro.scheduling.batched.crossover_thresholds`).
    """
    cuts = np.where(cross, cuts, m)
    thresholds = crossover_thresholds(np.where(cross, points, m * n), n)
    return (
        np.concatenate([cuts, cuts], axis=-1),
        np.concatenate([thresholds, thresholds], axis=-2),
    )


def swap_choices(
    flags: np.ndarray, first: np.ndarray, offset: np.ndarray, m: int
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """A block of ordering-swap draws as :func:`vectorized_mutation` takes them.

    Row ``t`` of the ``(B, C)`` arrays holds generation ``t``'s draws for
    its ``C`` children: *flags* marks the children whose ordering
    mutates; each swaps positions ``i = first`` and
    ``j = (i + 1 + offset) % m`` — with *offset* uniform on ``0..m-2``
    this offset trick is uniform over ordered distinct pairs, the same
    distribution as a per-individual ``rng.choice(m, 2, replace=False)``.
    Returns one ``(i, j)`` pair of arrays per generation, as positions in
    the flattened ``(C·m,)`` child orderings.
    """
    gens, rows = np.nonzero(flags)
    i = first[gens, rows]
    j = (i + 1 + offset[gens, rows]) % m
    base = rows * m
    i += base
    j += base
    bounds = gens.searchsorted(np.arange(flags.shape[0] + 1)).tolist()
    return [(i[a:b], j[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]


def pair_index(count: int) -> Tuple[np.ndarray, np.ndarray]:
    """Where each crossed child's head and tail parent sit among *count*.

    Consecutive selected parents pair up: slots ``0, 2, 4, …`` head the
    first half of the crossed children and slots ``1, 3, 5, …`` the
    second, each with its partner as tail.  Returns the ``(2·pairs,)``
    head and tail slots, so ``parents[heads]`` and ``parents[tails]``
    give both crossover directions in one gather each;
    :class:`~repro.scheduling.ga.GAScheduler` builds them once.
    """
    a = np.arange(0, count - count % 2, 2)
    b = a + 1
    return np.concatenate([a, b]), np.concatenate([b, a])


def vectorized_children(
    order: np.ndarray,
    masks: np.ndarray,
    parents: np.ndarray,
    cuts: Optional[np.ndarray],
    thresholds: Optional[np.ndarray],
    out_order: np.ndarray,
    out_masks: np.ndarray,
    slots: Tuple[np.ndarray, np.ndarray],
) -> None:
    """The next generation's non-elite individuals, built batch-at-once.

    Consecutive selected *parents* pair up; *cuts* ``(2·pairs,)`` and
    *thresholds* ``(2·pairs, n)`` are one generation's row of
    :func:`pair_choices` (``None`` when *parents* holds no pair), and
    *slots* is :func:`pair_index` of ``parents.size``.  Both crossover
    directions go through a single fused order-splice / mask-crossover
    invocation — the a-head children occupy the first half of the batch,
    the b-head children the second; child order within a generation is
    immaterial to selection.  An odd leftover parent is copied verbatim.
    With one task every ordering is the same, so the splice is skipped.

    Children are written into *out_order* ``(C, m)`` and *out_masks*
    ``(C, m, n)``, ``C == parents.size``.
    """
    count = parents.size
    m = order.shape[1]
    if count >= 2:
        head_at, tail_at = slots
        heads = parents[head_at]
        tails = parents[tail_at]
        child_order = out_order[: heads.size]
        child_masks = out_masks[: heads.size]
        # Indices are in range; mode="clip" skips the buffered copy the
        # default mode makes when writing to ``out``.
        if m >= 2:
            batched_order_splice(order[heads], order[tails], cuts, out=child_order)
        else:
            order.take(heads, axis=0, out=child_order, mode="clip")
        masks.take(tails, axis=0, out=child_masks, mode="clip")
        batched_mask_crossover(
            child_order, masks[heads], child_masks, thresholds, out=child_masks
        )
    if count % 2:
        out_order[-1] = order[parents[-1]]
        out_masks[-1] = masks[parents[-1]]


def _flat(a: np.ndarray) -> np.ndarray:
    """*a* as a flat **view** — ``reshape(-1)`` of a non-contiguous array
    would silently copy and drop the writes made through it."""
    if not a.flags.c_contiguous:
        raise ScheduleError("mutation needs C-contiguous arrays")
    return a.reshape(-1)


def vectorized_mutation(
    order: np.ndarray,
    masks: np.ndarray,
    swaps: Optional[Tuple[np.ndarray, np.ndarray]],
    flip_idx: Optional[np.ndarray],
    repair_picks_rng: np.random.Generator,
) -> None:
    """In-place two-part mutation from pre-drawn array choices.

    *swaps* is one generation's ``(i, j)`` from :func:`swap_choices`:
    flat positions in ``order`` whose entries exchange.  *flip_idx* holds
    the **flat** bit positions to toggle in ``masks`` (unique indices
    into the flattened ``(P·m·n,)`` view — :func:`bernoulli_indices`
    output, the sparse equivalent of XORing a Bernoulli bit field).
    Either may be ``None`` to skip that part; both arrays must be
    C-contiguous.  The empty-mask legitimacy repair always runs
    (crossover and flips can zero a row); its rare node picks come from
    *repair_picks_rng*.
    """
    n = masks.shape[2]
    if swaps is not None and swaps[0].size:
        i, j = swaps
        flat = _flat(order)
        held = flat[i]
        flat[i] = flat[j]
        flat[j] = held
    bits = _flat(masks)
    if flip_idx is not None and flip_idx.size:
        bits[flip_idx] ^= True
    rows = bits.reshape(-1, n)
    nonempty = np.logical_or.reduce(rows, axis=1)
    if not np.logical_and.reduce(nonempty):
        empty = np.flatnonzero(~nonempty)
        picks = repair_picks_rng.integers(n, size=empty.size)
        rows[empty, picks] = True


#: The reduction over a one-step walk: that step's row (a C-level getter).
_ONLY_ROW = operator.itemgetter(0)


class CostEvaluator:
    """eq.-(8) cost of every individual — the kernel's one evaluator.

    Bound to one availability: construction clamps and validates the
    free-time vector, moves deadlines and floors into time relative to
    ``ref_time``, and reads the weights, so an ``evolve`` call pays that
    set-up once for all its costings; the working arrays (the ``(n, P)``
    free times, the ``(m, P)`` start/completion tables and the
    ``(m, n, P)`` step cube) are allocated once per population size seen
    and fully overwritten by every call that reads them.  Calling it costs
    ``(order, masks)``, optionally into *out*.

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
      per-step reductions;
    * one queued task, the shape of most scheduling events, runs the same
      float operations without the free-time copy, the deadline gather
      or the reductions over its single step.

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
    finite and positive — so with at least one task every completion,
    and hence the makespan ω, is strictly positive.  Float arithmetic is
    reordered relative to the reference, so agreement is to rounding
    (asserted with ``approx`` by the property tests), not bit-identity.
    """

    def __init__(
        self,
        dtable: np.ndarray,
        deadlines: np.ndarray,
        node_free_times: Sequence[float],
        ref_time: float,
        weights,
        idle_weighting: str = "linear",
        *,
        floors: Optional[np.ndarray] = None,
        preds: Optional[np.ndarray] = None,
    ) -> None:
        m, n = dtable.shape
        #: The availability key
        #: (:func:`~repro.scheduling.evalreuse.clamp_availability`).
        free0, self.key = clamp_availability(node_free_times, ref_time)
        if free0.size != n:
            raise ScheduleError(
                f"node_free_times has {free0.size} entries, resource has {n}"
            )
        self._n = n
        self._free_rel = (free0 - ref_time)[:, None]  # all >= 0 after clamp
        self._dtable = dtable
        self._deadline_rel = deadlines - ref_time
        self._floor_rel = None if floors is None else floors - ref_time
        self._preds = preds
        self._idle_weighting = idle_weighting
        self._weights = (
            weights.makespan, weights.idle, weights.deadline, weights.total
        )
        # 1.0·x == x exactly, so unit weights need no multiplications.
        self._unit_weights = (
            weights.makespan == weights.idle == weights.deadline == 1.0
        )
        self._ones = np.ones(m * n)
        self._scratch: Dict[int, tuple] = {}

    def __call__(
        self,
        order: np.ndarray,
        masks: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        pop, m = order.shape
        n = self._n
        if m == 0:
            return np.zeros(pop)
        scratch = self._scratch.get(pop)
        if scratch is None:
            scratch = self._scratch[pop] = (
                np.empty((n, pop)),
                np.empty((m, pop)),
                np.empty((m, pop)),
                np.empty((m, n, pop)),
                np.arange(pop),
            )
        frel, starts, comps, cube, cols = scratch
        order_t = order.T
        # (m, n, pop): step-major, node-major per step, as a strided view
        # of the gathered masks.
        if m == 1:
            # A one-task ordering is the identity, so its masks need no
            # gather and its deadlines no gather either; a reduction over
            # the walk's one step is that step's row.
            smask = masks.transpose(1, 2, 0)
            deadlines = self._deadline_rel[0]
            step_max = step_sum = _ONLY_ROW
        else:
            smask = masks[cols[None, :], order_t].transpose(0, 2, 1)
            deadlines = self._deadline_rel[order_t]  # (m, pop)
            step_max, step_sum = np.maximum.reduce, np.add.reduce
        counts = np.add.reduce(smask, axis=1)  # (m, pop)
        durs = self._dtable[order_t, counts - 1]  # (m, pop)
        # Free times before the first step are the same on every column;
        # only a walk whose later steps read booked nodes needs its copy.
        free = self._free_rel  # (n, 1)
        if m > 1:
            frel[:] = free  # (n, pop)
            free = frel
        floors = self._floor_rel
        if floors is not None:
            floor_rel = floors[order_t]  # (m, pop)
        preds = self._preds
        if preds is not None:
            pred_rows = preds[order_t].transpose(0, 2, 1)  # (m, maxP, pop)
            track = np.empty((m + 1, pop))
            track.fill(-np.inf)
        last = m - 1
        for j in range(m):
            cj = cube[j]
            np.multiply(free, smask[j], out=cj)  # free >= 0, so 0-fill is safe
            np.maximum.reduce(cj, axis=0, out=starts[j])
            if floors is not None:
                np.maximum(starts[j], floor_rel[j], out=starts[j])
            if preds is not None:
                np.maximum(
                    starts[j],
                    np.maximum.reduce(track[pred_rows[j], cols], axis=0),
                    out=starts[j],
                )
            np.add(starts[j], durs[j], out=comps[j])
            if preds is not None:
                track[order_t[j], cols] = comps[j]
            if j < last:  # the last step's free times are never read
                np.copyto(frel, comps[j][None, :], where=smask[j])
        omega = step_max(comps)  # > 0: see the contract
        theta = step_sum(np.maximum(comps - deadlines, 0.0))
        # Idle pockets [a, b] on selected nodes: a = frel before the step
        # (cube holds frel·mask), b = the step's start.
        idle_weighting = self._idle_weighting
        if idle_weighting != "exponential":
            cube2d = cube.reshape(m * n, pop)
            cs = counts * starts
            # Σ count·start − Σ_sel frel; the flat matvec is the cheapest
            # (m·n, P) → (P,) reduction at these sizes (BLAS, one dispatch).
            # It and the einsum below round a column differently inside
            # different batches: a cost depends on its batch (DESIGN.md §4).
            idle_len = step_sum(cs) - self._ones @ cube2d
            if idle_weighting == "uniform":
                phi = idle_len
            else:  # linear; ω > 0, so the division needs no guard
                cs *= starts
                sel_sq = np.einsum("ij,ij->j", cube2d, cube2d)
                idle_sq = (step_sum(cs) - sel_sq) * 0.5
                phi = idle_len - idle_sq / omega
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
            phi = np.add.reduce(contrib, axis=(0, 1))
        w_makespan, w_idle, w_deadline, w_total = self._weights
        if self._unit_weights:
            combined = omega + phi + theta
        else:
            combined = w_makespan * omega + w_idle * phi + w_deadline * theta
        return np.divide(combined, w_total, out=out)
