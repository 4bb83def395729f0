"""Oracles the tests compare the shipped code against, and their helpers.

Nothing outside ``tests/`` imports this module.  It holds:

* the object-level GA operators of §2.1 (stochastic remainder selection,
  two-part crossover and mutation) over :class:`SolutionString`, the
  reference the batched array kernel in :mod:`repro.scheduling.batched`
  and :mod:`repro.scheduling.vectorized` is property-tested against;
* :func:`reference_repair_orders`, the precedence repair with a NumPy
  test per Kahn candidate, which ``GAScheduler._repair_orders`` must
  match row for row;
* :func:`reference_evolve`, the array generation loop with a set-up per
  costing, per-generation crossover inputs and concatenated next
  generations, which ``GAScheduler.evolve`` must match byte for byte;
* :class:`PerAgentPullStrategy`, periodic pull with one timer per agent,
  which :class:`repro.agents.advertisement.PullRounds` must match in
  records, RNG digest, deliveries and registries;
* :func:`exhaustive_allocation`, the literal 2^n − 1 subset search of the
  FIFO baseline (§4.1), which the O(n log n)
  :func:`repro.scheduling.fifo.earliest_free_allocation` must equal;
* solution-string builders (:func:`random_solution`, :func:`with_task`,
  :func:`without_task`) and :func:`warmstart_population`;
* :func:`base_config`, the experiment-3 configuration at test scale;
* accessors, resets and helpers that only tests call, as free functions
  over the objects they read (``is_head(agent)`` for ``agent.is_head``).

The operators' one repair rule is ours: a crossover or bit-flip that would
leave a task with an empty node mask re-sets one random bit, because an
empty mask is not a legitimate solution (every task needs at least one
node).  The paper does not specify its repair; any choice that restores
legitimacy preserves the algorithm's behaviour.
"""

from __future__ import annotations

import dataclasses
import heapq
import json
import os
from itertools import combinations
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.agents.advertisement import AdvertisementStrategy
from repro.agents.agent import Agent
from repro.agents.membership import ALIVE
from repro.errors import (
    CodingError,
    EvaluationError,
    HierarchyError,
    ModelError,
    ScheduleError,
    SimulationError,
    TaskError,
    ValidationError,
)
from repro.experiments.config import ExperimentConfig, table2_experiments
from repro.net.message import Message
from repro.net.transport import Transport
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.trace import MemorySink
from repro.pace.cache import CacheStats, EvaluationCache
from repro.pace.fitting import fit_best
from repro.pace.parametric import AmdahlModel, CommOverheadModel, LinearModel
from repro.pace.workloads import APPLICATION_NAMES, TABLE1_TIMES
from repro.scheduling.coding import SolutionString
from repro.scheduling.fifo import Allocation, SizeDurationFn, _best, _check_duration
from repro.scheduling.warmstart import (
    greedy_allocation_masks,
    greedy_allocation_masks_batch,
    warmstart_orders,
)
from repro.sim.engine import Engine
from repro.sim.events import Priority
from repro.sim.process import PeriodicProcess
from repro.tasks.task import Task, TaskRequest
from repro.utils.rng import derive_seed
from repro.utils.validation import check_non_empty


# ------------------------------------------------------------ GA operators

def stochastic_remainder_selection(
    fitness: Sequence[float], count: int, rng: np.random.Generator
) -> List[int]:
    """Select *count* parent indices by stochastic remainder sampling.

    Returns indices into the population; order is shuffled so consecutive
    entries can be paired for crossover.
    """
    f = np.asarray(fitness, dtype=float)
    if f.size == 0:
        raise ValidationError("fitness must not be empty")
    if np.any(f < 0) or not np.all(np.isfinite(f)):
        raise ValidationError("fitness values must be finite and >= 0")
    if count <= 0:
        raise ValidationError(f"count must be > 0, got {count}")
    mean = f.mean()
    if mean == 0:
        # Degenerate population: select uniformly.
        picks = rng.integers(0, f.size, size=count)
        return [int(i) for i in picks]
    expected = f / mean * (count / f.size)
    guaranteed = np.floor(expected).astype(int)
    selected: List[int] = []
    for idx, copies in enumerate(guaranteed):
        selected.extend([idx] * int(copies))
    remainder = expected - guaranteed
    slots = count - len(selected)
    if slots > 0:
        total = remainder.sum()
        if total <= 0:
            extra = rng.integers(0, f.size, size=slots)
        else:
            extra = rng.choice(f.size, size=slots, replace=True, p=remainder / total)
        selected.extend(int(i) for i in extra)
    elif slots < 0:
        # Rounding overshoot: trim random extras.
        rng.shuffle(selected)
        selected = selected[:count]
    result = np.array(selected)
    rng.shuffle(result)
    return [int(i) for i in result]


def order_splice(
    order_a: Sequence[int], order_b: Sequence[int], cut: int
) -> Tuple[int, ...]:
    """Splice two orderings at *cut*: a's prefix, then b's order for the rest.

    This is the "reorder the pairs to produce legitimate solutions" step —
    the child is always a permutation of the common task set.

    >>> order_splice([3, 5, 2, 1], [1, 2, 5, 3], 2)
    (3, 5, 1, 2)
    """
    if set(order_a) != set(order_b):
        raise ValidationError("orderings must cover the same task ids")
    if not (0 <= cut <= len(order_a)):
        raise ValidationError(f"cut {cut} out of range 0..{len(order_a)}")
    head = list(order_a[:cut])
    head_set = set(head)
    tail = [t for t in order_b if t not in head_set]
    return tuple(head + tail)


def _repair_empty_masks(
    masks: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Set one random bit in any all-zero row (legitimacy repair)."""
    empty = ~masks.any(axis=1)
    for row in np.flatnonzero(empty):
        masks[row, int(rng.integers(masks.shape[1]))] = True
    return masks


def crossover(
    parent_a: SolutionString,
    parent_b: SolutionString,
    rng: np.random.Generator,
) -> Tuple[SolutionString, SolutionString]:
    """Two-part crossover producing two children.

    The ordering strings are spliced at one random location (both
    directions, giving two children); the mapping parts — flattened in each
    child's task order — undergo a shared single-point binary crossover.
    """
    if set(parent_a.ordering) != set(parent_b.ordering):
        raise ValidationError("parents must encode the same task set")
    m = parent_a.n_tasks
    if m == 0:
        return parent_a, parent_b
    n = parent_a.n_nodes
    cut = int(rng.integers(0, m + 1))
    child1_order = order_splice(parent_a.ordering, parent_b.ordering, cut)
    child2_order = order_splice(parent_b.ordering, parent_a.ordering, cut)

    # Mapping crossover: reorder both parents' maps to the child's task
    # order (keyed lookup does this for free), flatten, single-point cross.
    point = int(rng.integers(0, m * n + 1))

    def cross_maps(
        order: Tuple[int, ...], first: SolutionString, second: SolutionString
    ) -> dict:
        flat_first = np.concatenate([first.mask(t) for t in order])
        flat_second = np.concatenate([second.mask(t) for t in order])
        child_flat = np.concatenate([flat_first[:point], flat_second[point:]])
        masks = child_flat.reshape(m, n).copy()
        masks = _repair_empty_masks(masks, rng)
        return {t: masks[i] for i, t in enumerate(order)}

    child1 = SolutionString(child1_order, cross_maps(child1_order, parent_a, parent_b))
    child2 = SolutionString(child2_order, cross_maps(child2_order, parent_b, parent_a))
    return child1, child2


def mutate(
    solution: SolutionString,
    rng: np.random.Generator,
    *,
    swap_probability: float = 0.2,
    bitflip_probability: float = 0.02,
) -> SolutionString:
    """Two-part mutation: order swap + per-bit mapping flips.

    With probability *swap_probability* two ordering positions are switched;
    every mapping bit flips independently with *bitflip_probability*.
    Empty masks are repaired.
    """
    if not (0 <= swap_probability <= 1 and 0 <= bitflip_probability <= 1):
        raise ValidationError("mutation probabilities must be in [0, 1]")
    m = solution.n_tasks
    if m == 0:
        return solution
    n = solution.n_nodes
    ordering = list(solution.ordering)
    if m >= 2 and rng.random() < swap_probability:
        i, j = rng.choice(m, size=2, replace=False)
        ordering[i], ordering[j] = ordering[j], ordering[i]
    masks = np.stack([solution.mask(t) for t in ordering]).copy()
    flips = rng.random(masks.shape) < bitflip_probability
    masks ^= flips
    masks = _repair_empty_masks(masks, rng)
    return SolutionString(ordering, {t: masks[i] for i, t in enumerate(ordering)})


# ----------------------------------------------------- precedence repair

def reference_repair_orders(order: np.ndarray, pred_mat: Optional[np.ndarray]) -> None:
    """Stable topological repair of every row of *order*, in place.

    ``GAScheduler._repair_orders`` as it stood with a NumPy test per
    candidate: *pred_mat* is ``(m, maxP)`` of predecessor rows padded
    with the sentinel row ``m`` (``None`` = no active constraint).  One
    array pass finds the rows that put a task at or before a
    predecessor; each is rebuilt by a stable Kahn pass that places, at
    every step, the first pending task whose predecessors are placed.
    """
    if pred_mat is None:
        return
    pop, m = order.shape
    pos = np.empty((pop, m + 1), dtype=np.int64)
    pos[:, m] = -1  # the sentinel row never binds
    pos[np.arange(pop)[:, None], order] = np.arange(m)
    latest_pred = pos[:, pred_mat].max(axis=2)  # (P, m)
    violators = np.flatnonzero((pos[:, :m] <= latest_pred).any(axis=1))
    for p in violators:
        placed = np.zeros(m + 1, dtype=bool)
        placed[m] = True
        out: List[int] = []
        pending = [int(r) for r in order[p]]
        while pending:
            for i, r in enumerate(pending):
                if placed[pred_mat[r]].all():
                    out.append(r)
                    placed[r] = True
                    del pending[i]
                    break
            else:
                raise ScheduleError("precedence constraints contain a cycle")
        order[p] = out


# ----------------------------------------------- the reference GA loop
#
# ``reference_evolve`` is the generation loop of ``GAScheduler.evolve`` as
# it stood before the per-call evaluator set-up, the block-drawn
# crossover inputs and the in-place next generation, together with the
# array operator forms it called.  The shipped loop must stay
# byte-identical to it: same RNG draws, same orderings, masks, costs,
# history and counters (tests/properties/test_evolve_identity.py).


def reference_scale_fitness(costs: np.ndarray) -> np.ndarray:
    """eq. (9) with an explicit all-finite check."""
    arr = np.asarray(costs, dtype=float)
    if arr.size == 0:
        raise ValidationError("costs must not be empty")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("costs must be finite")
    worst = float(arr.max())
    best = float(arr.min())
    if worst == best:
        return np.ones_like(arr)
    return (worst - arr) / (worst - best)


def reference_bernoulli_indices(
    rng: np.random.Generator, total: int, p: float
) -> np.ndarray:
    """Successes of *total* Bernoulli(*p*) trials via geometric gaps."""
    if p <= 0.0 or total <= 0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(total, dtype=np.int64)
    mean = total * p
    chunk = int(mean + 6.0 * np.sqrt(mean)) + 8
    positions = np.cumsum(rng.geometric(p, size=chunk)) - 1
    while positions[-1] < total:
        more = np.cumsum(rng.geometric(p, size=chunk)) + positions[-1]
        positions = np.concatenate([positions, more])
    return positions[: np.searchsorted(positions, total)]


def reference_selection(
    fitness: np.ndarray, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Stochastic remainder selection, shuffled by ``rng.permutation``."""
    f = np.asarray(fitness, dtype=float)
    total_f = f.sum()
    if total_f == 0.0:
        return rng.integers(0, f.size, size=count)
    expected = f * (count / total_f)
    guaranteed = expected.astype(np.int64)
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


def reference_batched_splice(
    orders_a: np.ndarray, orders_b: np.ndarray, cuts: np.ndarray
) -> np.ndarray:
    """The batched order splice through a scattered head-membership table."""
    batch, m = orders_a.shape
    positions = np.arange(m)
    rows = np.arange(batch)[:, None]
    head_mask = positions[None, :] < cuts[:, None]
    in_head = np.zeros((batch, m), dtype=bool)
    in_head[rows, orders_a] = head_mask
    keep = ~in_head[rows, orders_b]
    dest = cuts[:, None] + np.cumsum(keep, axis=1) - 1
    children = np.empty_like(orders_a)
    np.copyto(children, orders_a, where=head_mask)
    b_idx, j_idx = np.nonzero(keep)
    children[b_idx, dest[b_idx, j_idx]] = orders_b[b_idx, j_idx]
    return children


def reference_batched_mask_crossover(
    child_orders: np.ndarray,
    masks_first: np.ndarray,
    masks_second: np.ndarray,
    points: np.ndarray,
) -> np.ndarray:
    """Row-keyed single-point mask crossover at flat *points*."""
    batch, m, n = masks_first.shape
    rows = np.arange(batch)[:, None]
    inverse = np.empty((batch, m), dtype=np.int32)
    inverse[rows, child_orders] = np.arange(m, dtype=np.int32)[None, :]
    thresholds = (points[:, None] - np.arange(n, dtype=np.int32) + n - 1) // n
    children = masks_second.copy()
    np.copyto(
        children,
        masks_first,
        where=inverse[:, :, None] < thresholds.astype(np.int32)[:, None, :],
    )
    return children


def reference_children(
    order: np.ndarray,
    masks: np.ndarray,
    parents: np.ndarray,
    do_cross: np.ndarray,
    cuts: np.ndarray,
    points: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Children of paired parents: splice and cross every pair, then copy
    the non-crossing pairs' heads back over their children."""
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
    child_order = reference_batched_splice(head_orders, order[tails], cuts2)
    child_masks = reference_batched_mask_crossover(
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


def reference_mutation(
    order: np.ndarray,
    masks: np.ndarray,
    swap_sel: Optional[np.ndarray],
    swap_i: Optional[np.ndarray],
    swap_j: Optional[np.ndarray],
    flip_idx: Optional[np.ndarray],
    repair_picks_rng: np.random.Generator,
) -> None:
    """In-place swap (``j = (i + 1 + swap_j) % m``), flips and repair."""
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
        else:
            masks[np.unravel_index(flip_idx, masks.shape)] ^= True
    flat = masks.reshape(-1, n)
    empty = ~flat.any(axis=1)
    if empty.any():
        picks = repair_picks_rng.integers(n, size=int(empty.sum()))
        flat[np.flatnonzero(empty), picks] = True


def reference_costs(
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
    """The node-major eq.-(8) evaluator, set up afresh on every call."""
    pop, m = order.shape
    n = masks.shape[2]
    free0 = np.maximum(np.asarray(node_free_times, dtype=float), ref_time)
    if free0.size != n:
        raise ScheduleError(
            f"node_free_times has {free0.size} entries, resource has {n}"
        )
    if m == 0:
        return np.zeros(pop)
    frel, starts, comps = np.empty((n, pop)), np.empty((m, pop)), np.empty((m, pop))
    cube, ones_mn, rows_idx = np.empty((m, n, pop)), np.ones(m * n), np.arange(pop)[:, None]
    smask = np.ascontiguousarray(masks[rows_idx, order].transpose(1, 2, 0))
    counts = smask.sum(axis=1)
    order_t = order.T
    durs = dtable[order_t, counts - 1]
    frel[:] = (free0 - ref_time)[:, None]
    if floors is not None:
        floor_rel = (floors - ref_time)[order_t]
    if preds is not None:
        pred_rows = preds[order_t].transpose(0, 2, 1)
        track = np.full((m + 1, pop), -np.inf)
        cols = rows_idx[:, 0]
    for j in range(m):
        cj = cube[j]
        np.multiply(frel, smask[j], out=cj)
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
    if idle_weighting != "exponential":
        cube2d = cube.reshape(m * n, pop)
        cs = counts * starts
        idle_len = cs.sum(axis=0) - ones_mn @ cube2d
        if idle_weighting == "uniform":
            phi = idle_len
        else:
            cs *= starts
            sel_sq = np.einsum("ij,ij->j", cube2d, cube2d)
            idle_sq = (cs.sum(axis=0) - sel_sq) * 0.5
            safe = np.where(omega > 0, omega, 1.0)
            phi = np.where(omega > 0, idle_len - idle_sq / safe, 0.0)
    else:
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


def _reference_ga_costs(ga, order, masks, free, ref_time) -> np.ndarray:
    pred_mat, floor_vec = ga._constraint_arrays()
    costs = reference_costs(
        order, masks, ga._dtable, ga._deadline_arr, free, ref_time,
        ga.config.weights, ga.config.idle_weighting,
        floors=floor_vec, preds=pred_mat,
    )
    ga.stats.evaluate_calls += 1
    ga.stats.rows_costed += costs.size
    ga.stats.rows_evaluated += costs.size
    return costs


def _reference_warmstart(ga, costs, free, ref_time) -> np.ndarray:
    cfg = ga.config
    pop = ga._order.shape[0]
    order_parts = []
    if cfg.warmstart_count > 0:
        priorities = ga._priority_arr if np.any(ga._priority_arr != 0.0) else None
        order_parts.append(
            warmstart_orders(
                ga._dtable, ga._deadline_arr, cfg.warmstart_count, ga._rng,
                priorities=priorities,
            )
        )
    if cfg.memetic:
        order_parts.append(ga._order[int(np.argmin(costs))][None, :])
    if not order_parts:
        return costs
    w_orders = np.concatenate(order_parts)
    reference_repair_orders(w_orders, ga._constraint_arrays()[0])
    w_masks = greedy_allocation_masks_batch(w_orders, ga._dtable, free, ref_time)
    seed_costs = _reference_ga_costs(ga, w_orders, w_masks, free, ref_time)
    count = min(seed_costs.size, pop - 1)
    seed_rank = np.argsort(seed_costs, kind="stable")[:count]
    worst_rank = np.argsort(costs, kind="stable")[::-1][:count]
    take = seed_costs[seed_rank] < costs[worst_rank]
    if take.any():
        rows = worst_rank[take]
        seeds = seed_rank[take]
        ga._order[rows] = w_orders[seeds]
        ga._masks[rows] = w_masks[seeds]
        costs = costs.copy()
        costs[rows] = seed_costs[seeds]
        ga.stats.warmstart_seeds += int(take.sum())
    return costs


def _reference_memetic(ga, costs, cached, free, ref_time):
    best = int(np.argmin(costs))
    border = ga._order[best]
    if cached is None or not np.array_equal(border, cached[0]):
        cand_masks = greedy_allocation_masks(border, ga._dtable, free, ref_time)
        cand_cost = float(
            _reference_ga_costs(
                ga, border[None, :], cand_masks[None, :, :], free, ref_time
            )[0]
        )
        cached = (border.copy(), cand_masks, cand_cost)
    cand_order, cand_masks, cand_cost = cached
    worst = int(np.argmax(costs))
    if worst != best and cand_cost < costs[worst]:
        ga._order[worst] = cand_order
        ga._masks[worst] = cand_masks
        costs[worst] = cand_cost
    return costs, cached


def reference_evolve(
    ga, generations: int, free: Sequence[float], ref_time: float
) -> float:
    """``ga.evolve(generations, free, ref_time)`` through the reference loop.

    Drives *ga*'s own population, RNG, counters, history and cost cache,
    so a kernel evolved here and one evolved by ``GAScheduler.evolve``
    can be compared field for field.  Trace emission is left out (the
    identity test runs untraced).
    """
    from repro.scheduling.evalreuse import clamp_availability
    from repro.scheduling.ga import (
        BITFLIP_PROBABILITY,
        CROSSOVER_PROBABILITY,
        ELITE_COUNT,
        SWAP_PROBABILITY,
    )

    if generations < 0:
        raise ValidationError(f"generations must be >= 0, got {generations}")
    if ga._order is None:
        return 0.0
    cfg = ga.config
    stats = ga.stats
    rng = ga._rng
    ga._invalidate_cost_cache()
    costs = _reference_ga_costs(ga, ga._order, ga._masks, free, ref_time)
    costs = _reference_warmstart(ga, costs, free, ref_time)
    pop = cfg.population_size
    m = ga.n_tasks
    n = ga._n
    n_children = pop - ELITE_COUNT
    pairs = n_children // 2
    do_swaps = m >= 2
    last_memetic = None
    done = 0
    while done < generations:
        block = min(32, generations - done)
        if pairs:
            cross_flags = rng.random((block, pairs)) < CROSSOVER_PROBABILITY
            cuts_b = rng.integers(0, m + 1, size=(block, pairs))
            points_b = rng.integers(0, m * n + 1, size=(block, pairs))
        if do_swaps:
            swap_flags = rng.random((block, n_children)) < SWAP_PROBABILITY
            swap_i = rng.integers(0, m, size=(block, n_children))
            swap_j = rng.integers(0, m - 1, size=(block, n_children))
        for t in range(block):
            fitness = reference_scale_fitness(costs)
            elite_idx = np.argsort(costs, kind="stable")[:ELITE_COUNT]
            parents = reference_selection(fitness, n_children, rng)
            if pairs:
                child_order, child_masks = reference_children(
                    ga._order, ga._masks, parents,
                    cross_flags[t], cuts_b[t], points_b[t],
                )
            else:
                child_order = ga._order[parents].copy()
                child_masks = ga._masks[parents].copy()
            flip_idx = reference_bernoulli_indices(
                rng, n_children * m * n, BITFLIP_PROBABILITY
            )
            reference_mutation(
                child_order,
                child_masks,
                swap_flags[t] if do_swaps else None,
                swap_i[t] if do_swaps else None,
                swap_j[t] if do_swaps else None,
                flip_idx,
                rng,
            )
            reference_repair_orders(child_order, ga._constraint_arrays()[0])
            child_costs = _reference_ga_costs(
                ga, child_order, child_masks, free, ref_time
            )
            ga._order = np.concatenate([ga._order[elite_idx], child_order])
            ga._masks = np.concatenate([ga._masks[elite_idx], child_masks])
            costs = np.concatenate([costs[elite_idx], child_costs])
            stats.rows_costed += elite_idx.size
            stats.carry_hits += elite_idx.size
            if cfg.memetic:
                costs, last_memetic = _reference_memetic(
                    ga, costs, last_memetic, free, ref_time
                )
            ga._generations += 1
            ga._history.append((ga._generations, float(costs.min())))
        done += block
    ga._cached_costs = costs
    ga._cost_cache_key = clamp_availability(free, ref_time)[1]
    return float(costs.min())


# ------------------------------------------------------------ FIFO search

def exhaustive_allocation(
    free_times: Sequence[float], duration: SizeDurationFn
) -> Allocation:
    """Try every non-empty node subset; return the earliest-completion one.

    The literal strategy the paper describes.  Exponential in the node
    count — use :func:`earliest_free_allocation` beyond ~16 nodes.
    """
    check_non_empty(free_times, "free_times")
    n = len(free_times)
    candidates: List[Allocation] = []
    for k in range(1, n + 1):
        dur = float(duration(k))
        _check_duration(dur, k)
        for subset in combinations(range(n), k):
            start = max(free_times[i] for i in subset)
            candidates.append(Allocation(subset, start, start + dur))
    return _best(candidates)


# --------------------------------------------------------- solution strings

def with_task(
    solution: SolutionString,
    task_id: int,
    mask: np.ndarray,
    position: int | None = None,
) -> SolutionString:
    """A copy of *solution* with a new task spliced in at *position* (default: end)."""
    ordering = list(solution.ordering)
    if task_id in ordering:
        raise CodingError(f"task {task_id} already encoded")
    pos = len(ordering) if position is None else position
    if not (0 <= pos <= len(ordering)):
        raise CodingError(f"position {pos} out of range 0..{len(ordering)}")
    mapping = {tid: solution.mask(tid) for tid in ordering}
    ordering.insert(pos, task_id)
    mapping[task_id] = np.asarray(mask, dtype=bool)
    return SolutionString(ordering, mapping)


def without_task(solution: SolutionString, task_id: int) -> SolutionString:
    """A copy of *solution* with *task_id* excised (e.g. after it starts executing)."""
    if task_id not in solution.ordering:
        raise CodingError(f"solution does not encode task {task_id}")
    ordering = [t for t in solution.ordering if t != task_id]
    return SolutionString(ordering, {t: solution.mask(t) for t in ordering})


def random_solution(
    task_ids: Sequence[int], n_nodes: int, rng: np.random.Generator
) -> SolutionString:
    """A uniformly random legitimate solution over *task_ids* and *n_nodes*.

    Each node mask is drawn uniformly from the non-empty subsets.
    """
    if n_nodes <= 0:
        raise CodingError(f"n_nodes must be > 0, got {n_nodes}")
    ids = list(task_ids)
    ordering = [ids[i] for i in rng.permutation(len(ids))]
    mapping: Dict[int, np.ndarray] = {}
    for tid in ids:
        mask = rng.random(n_nodes) < 0.5
        if not mask.any():
            mask[int(rng.integers(n_nodes))] = True
        mapping[tid] = mask
    return SolutionString(ordering, mapping)


# -------------------------------------------------------------- warm starts

def warmstart_population(
    dtable: np.ndarray,
    deadlines: np.ndarray,
    node_free_times: Sequence[float],
    ref_time: float,
    count: int,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """*count* list-scheduling seeds — ``(orders (count, m), masks (count, m, n))``.

    Each candidate ordering from :func:`warmstart_orders` is mapped with
    the greedy allocator under the given availability.  Every seed is a
    legitimate solution by construction: orderings are permutations,
    every task's mask selects at least one node.
    """
    orders = warmstart_orders(dtable, deadlines, count, rng)
    masks = greedy_allocation_masks_batch(
        orders, dtable, node_free_times, ref_time
    )
    return orders, masks


# ------------------------------------------------------------- experiments

def base_config(request_count: int = 60, **overrides) -> ExperimentConfig:
    """The experiment-3 configuration at a configurable scale."""
    cfg = table2_experiments(request_count=request_count)[2]
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return cfg


# -------------------------------------------------------------- resets
#
# No run reuses its plumbing: every run builds a fresh engine, transport
# and stats objects.  The tests still hold each reset to the seed state.

def reset(obj) -> None:
    """Return a stats dataclass, counter, registry or engine to its seed state."""
    if isinstance(obj, Engine):
        obj._guard_reentrancy()
        obj._heap.clear()
        obj._now = obj._start_time
        obj._sequence = 0
        obj._fired = 0
        obj._pending = 0
        obj._garbage = 0
    elif isinstance(obj, Counter):
        obj._value = 0
    elif isinstance(obj, MetricsRegistry):
        for counter in obj._counters.values():
            reset(counter)
    else:
        for f in dataclasses.fields(obj):
            setattr(obj, f.name, f.default)


def reset_counters(transport: Transport) -> None:
    """Zero a transport's tallies; configuration survives."""
    transport._sent = 0
    transport._delivered = 0
    transport._dropped_count = 0
    transport._fault_dropped_count = 0


# ------------------------------------------------------------------ agents

class PerAgentPullStrategy(AdvertisementStrategy):
    """Periodic pull on one :class:`PeriodicProcess` per agent (§4.1).

    The strategy before pull rounds: every agent has its own
    ``Priority.ADVERTISEMENT`` timer, first due at start, re-armed
    *interval* seconds after each firing.  One object serves a grid and
    is built as :class:`repro.agents.advertisement.PullRounds` is, whose
    shared rounds must pull in exactly this order.
    """

    def __init__(
        self, sim: Engine, transport: Transport, interval: float  # noqa: ARG002
    ) -> None:
        self._interval = float(interval)
        # Each started agent's timer, by agent name.
        self._processes: Dict[str, PeriodicProcess] = {}

    def _make(self, agent: Agent) -> PeriodicProcess:
        process = self._processes[agent.name] = PeriodicProcess(
            agent.sim,
            self._interval,
            agent.pull_neighbours,
            priority=Priority.ADVERTISEMENT,
            fire_immediately=True,
            label=f"pull-{agent.name}",
        )
        return process

    def start(self, agent: Agent) -> None:
        if agent.name in self._processes:
            raise ValidationError(f"agent {agent.name!r} already pulls")
        self._make(agent).start()

    def stop(self, agent: Agent) -> None:
        process = self._processes.pop(agent.name, None)
        if process is not None:
            process.stop()

    def snapshot_state(self) -> dict:
        return {
            name: process.snapshot_state()
            for name, process in sorted(self._processes.items())
        }

    def restore_state(self, state: dict, agents) -> None:
        for name, raw in state.items():
            self._make(agents[name]).restore_state(raw)


def is_head(agent: Agent) -> bool:
    """Whether *agent* heads the hierarchy."""
    return agent.parent is None


def policy(obj):
    """The global policy an agent runs, or a local scheduler's policy."""
    return obj._policy


def pending_ack_count(obj) -> int:
    """Forwards (agent) or submissions (portal) still awaiting their ACK."""
    return len(obj._pending_acks) if isinstance(obj, Agent) else len(obj._pending)


def submitted(portal) -> dict:
    """Every request a portal has sent, by request id (copy)."""
    return dict(portal._submitted)


def registry(agent: Agent) -> dict:
    """Advertised neighbour service information (copy)."""
    return dict(agent._registry)


def registry_times(agent: Agent) -> dict:
    """When each neighbour's advertised record arrived (copy)."""
    return dict(agent._registry_time)


def next_of_kin(healer):
    """The latest next-of-kin gossip from the healer's current parent."""
    return healer._kin


def orphaned(healer) -> bool:
    """Whether a repair is in flight."""
    return healer._pending is not None


def hierarchy_agent(hierarchy, name: str) -> Agent:
    """Look up an agent of *hierarchy* by name."""
    try:
        return hierarchy._agents[name]
    except KeyError:
        raise HierarchyError(f"no agent named {name!r}") from None


def hierarchy_size(hierarchy) -> int:
    """Number of agents in *hierarchy*."""
    return len(hierarchy._agents)


def depth(hierarchy, name: str) -> int:
    """Distance from *name* to the head (the head itself is depth 0)."""
    agent = hierarchy_agent(hierarchy, name)
    steps = 0
    while agent.parent is not None:
        agent = agent.parent
        steps += 1
        if steps > hierarchy_size(hierarchy):
            raise HierarchyError("cycle detected while computing depth")
    return steps


def leaves(hierarchy) -> List[Agent]:
    """Agents with no children, sorted by name."""
    return sorted(
        (a for a in hierarchy._agents.values() if not a.children),
        key=lambda a: a.name,
    )


def state_of(detector, endpoint) -> str:
    """The lease state of one neighbour link (``alive`` when unknown)."""
    return detector._state.get(endpoint, ALIVE)


def open_auctions(auction_policy) -> dict:
    """In-flight CFP rounds keyed by request id (live view)."""
    return auction_policy._open


def pending_reservations(reservation_policy) -> dict:
    """RESERVEs awaiting their CONFIRM/REJECT (live view)."""
    return reservation_policy._pending


def bookings(reservation_policy) -> dict:
    """Open windows booked at this agent (copy)."""
    return dict(reservation_policy._bookings)


# ------------------------------------------------------------- experiments

def scaled(config: ExperimentConfig, request_count: int) -> ExperimentConfig:
    """A copy of *config* with a smaller workload."""
    return dataclasses.replace(config, request_count=request_count)


def default_jobs() -> int:
    """A worker count: the ``REPRO_JOBS`` env var, else the CPU count."""
    env = os.environ.get("REPRO_JOBS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def merge_cache_stats(results) -> CacheStats:
    """Evaluation-cache statistics summed over experiment results."""
    total = CacheStats()
    for result in results:
        total = add_stats(total, result.cache_stats)
    return total


def supported(summary, threshold: float = 1.0) -> List[str]:
    """Trend checks a seed sweep held in at least *threshold* of its seeds."""
    return sorted(
        name for name, frac in summary.trend_support.items() if frac >= threshold
    )


def cache_stats(summary) -> CacheStats:
    """Evaluation-cache statistics merged across every run of a seed sweep."""
    return merge_cache_stats(
        [r for results in summary.per_seed.values() for r in results]
    )


# ---------------------------------------------------------------- metrics

def execution_time(record) -> float:
    """``η_j − τ_j`` of a completion record."""
    return record.completion - record.start


# -------------------------------------------------------------------- net

def to_json(spec, *, indent: int = 2) -> str:
    """Serialise a fault-plan spec for ``repro experiment4 --fault-plan``."""
    return json.dumps(dataclasses.asdict(spec), indent=indent)


def churn_events(schedule) -> list:
    """A churn schedule's events in firing order (copy)."""
    return list(schedule._events)


def churn_size(schedule) -> int:
    """Number of events in a churn schedule."""
    return len(schedule._events)


def forward_message(message, sender, recipient):
    """A copy of *message* routed onward with the hop count incremented."""
    return Message(
        kind=message.kind,
        sender=sender,
        recipient=recipient,
        payload=message.payload,
        hops=message.hops + 1,
    )


def advance_time(result) -> float:
    """δ − η of a task result; positive when the deadline was met."""
    return result.deadline - result.completion_time


def tap(transport, observer: Callable) -> None:
    """Observe every message *transport* delivers, before its handler runs.

    Wraps the handlers registered now and any registered later, so a
    dropped message is never observed.
    """

    def tapped(handler: Callable) -> Callable:
        def deliver(message) -> None:
            observer(message)
            handler(message)

        return deliver

    handlers = transport._handlers
    for endpoint, handler in handlers.items():
        handlers[endpoint] = tapped(handler)
    register = transport.register
    transport.register = lambda endpoint, handler: register(endpoint, tapped(handler))


# -------------------------------------------------------------------- obs

def clear(obj) -> None:
    """Empty a memory sink or an evaluation cache (keeping its statistics)."""
    if isinstance(obj, MemorySink):
        obj._records.clear()
    else:
        obj._entries.clear()


def local(span):
    """A request span's first local absorption, if any."""
    return span.locals[0] if span.locals else None


def hops(span) -> int:
    """Discovery decisions taken while routing a request span."""
    return len(span.discovery)


def resolved(span) -> bool:
    """Whether the portal recorded any result for a request span."""
    return span.result is not None


# ------------------------------------------------------------------- pace

def curve(model, platform, max_nproc: int) -> Tuple[float, ...]:
    """Predictions for 1..max_nproc on *platform*."""
    return tuple(model.predict(k, platform) for k in range(1, max_nproc + 1))


def optimal_nproc(model, platform, max_nproc: int) -> int:
    """The processor count in 1..max_nproc minimising predicted time
    (ties resolve to the smallest count)."""
    best_k, best_t = 1, model.predict(1, platform)
    for k in range(2, max_nproc + 1):
        t = model.predict(k, platform)
        if t < best_t:
            best_k, best_t = k, t
    return best_k


def max_profiled(model) -> int:
    """Largest processor count a tabulated curve was profiled at."""
    return len(model._times)


def as_mapping(model, platform) -> Dict[int, float]:
    """Predictions for each profiled processor count on *platform*."""
    return {k: model.predict(k, platform) for k in range(1, max_profiled(model) + 1)}


def add_stats(a: CacheStats, b: CacheStats) -> CacheStats:
    """The sum of two cache statistics (neither operand changes)."""
    if not isinstance(b, CacheStats):
        raise TypeError(f"cannot add {type(b).__name__} to CacheStats")
    return CacheStats(
        hits=a.hits + b.hits,
        misses=a.misses + b.misses,
        evictions=a.evictions + b.evictions,
    )


def cache_size(cache: EvaluationCache) -> int:
    """Number of cached entries."""
    return len(cache._entries)


def invalidate(cache: EvaluationCache, key) -> bool:
    """Drop one entry; returns whether it was present."""
    return cache._entries.pop(key, None) is not None


def contains(cache: EvaluationCache, key) -> bool:
    """Whether *key* is cached."""
    return key in cache._entries


def noise_factor(engine) -> float:
    """Log-normal σ of an evaluation engine's prediction perturbation."""
    return engine._noise_factor


def evaluate_nodes(engine, application, nodes) -> float:
    """Predicted time on an explicit node allocation; the slowest platform
    in the allocation sets the pace."""
    if len(nodes) == 0:
        raise EvaluationError("allocation must contain at least one node")
    slowest = max(nodes, key=lambda n: n.platform.speed_factor).platform
    return engine.evaluate_count(application, len(nodes), slowest)


def evaluate_on_resource(engine, application, resource, node_ids) -> float:
    """Predicted time for an allocation given by node ids within *resource*."""
    return evaluate_nodes(engine, application, resource.subset(node_ids))


def samples(tracker) -> int:
    """Number of load samples a tracker observed."""
    return tracker._samples


def scale(platform, baseline_seconds: float) -> float:
    """A baseline (SGIOrigin2000) execution time scaled to *platform*."""
    return baseline_seconds * platform.speed_factor


def parameters(model) -> Tuple[float, ...]:
    """A parametric model's fitted parameters, in baseline seconds."""
    if isinstance(model, AmdahlModel):
        return (model._serial, model._parallel)
    if isinstance(model, CommOverheadModel):
        return (model._serial, model._parallel, model._overhead)
    if isinstance(model, LinearModel):
        return (model._intercept, model._slope)
    raise TypeError(f"no parameters for {type(model).__name__}")


def speedup(model: AmdahlModel, nproc: int) -> float:
    """An Amdahl model's predicted speedup over one processor."""
    return (model._serial + model._parallel) / (model._serial + model._parallel / nproc)


def optimum(model: CommOverheadModel) -> float:
    """The real-valued processor count minimising t(n) = s + p/n + o(n − 1):
    ``sqrt(p / o)``, infinite when o is 0."""
    if model._overhead == 0:
        return float("inf")
    return (model._parallel / model._overhead) ** 0.5


def is_homogeneous(resource) -> bool:
    """Whether every node of *resource* shares one platform."""
    first = resource.nodes[0].platform
    return all(n.platform == first for n in resource.nodes)


def resource_platform(resource):
    """The common platform of a homogeneous resource."""
    if not is_homogeneous(resource):
        raise ModelError(f"resource {resource.name!r} is heterogeneous")
    return resource.nodes[0].platform


def spec_name(spec) -> str:
    """An application spec's name."""
    return spec.model.name


def fitted_paper_models() -> dict:
    """Best-fit parametric models for each Table 1 curve."""
    return {name: fit_best(name, TABLE1_TIMES[name]) for name in APPLICATION_NAMES}


# -------------------------------------------------------------- scheduling

def hit_rate(stats) -> float:
    """Fraction of requested GA costs served without re-evaluation."""
    if stats.rows_costed == 0:
        return 0.0
    return 1.0 - stats.rows_evaluated / stats.rows_costed


def duration(allocation: Allocation) -> float:
    """Booked execution time of a fixed allocation."""
    return allocation.completion - allocation.start


def makespan(booking) -> float:
    """Latest booked completion of a fixed-placement scheduler."""
    return float(booking._free.max())


def poll_interval(monitor) -> float:
    """A resource monitor's polling cadence in seconds."""
    return interval(monitor._process)


def is_available(monitor, node_id: int) -> bool:
    """Availability of *node_id* as of the monitor's last poll."""
    monitor._check_node(node_id)
    return monitor._observed_up[node_id]


def available_ids(monitor) -> List[int]:
    """Node ids observed available at the monitor's last poll."""
    return [i for i, up in enumerate(monitor._observed_up) if up]


def tracks_load(monitor) -> bool:
    """Whether the monitor samples host load (the NWS extension)."""
    return monitor._trackers is not None


def load_tracker(monitor, node_id: int):
    """The adaptive tracker behind *node_id*'s load forecasts."""
    monitor._check_node(node_id)
    if monitor._trackers is None:
        raise ValidationError("load tracking is not enabled on this monitor")
    return monitor._trackers[node_id]


def scheduler_task(scheduler, task_id: int) -> Optional[Task]:
    """The task a local scheduler holds under *task_id*, or ``None``."""
    return scheduler._task_by_id.get(task_id)


def workflow_task_id(scheduler, workflow_id: int, node: str) -> Optional[int]:
    """The local task id realising *(workflow, node)*, or ``None``."""
    return scheduler._wf_node_task.get((workflow_id, node))


# -------------------------------------------------------------------- sim

def pending(engine) -> int:
    """Events still queued, excluding cancelled ones."""
    return engine._pending


def heap_size(engine: Engine) -> int:
    """Heap entries, cancelled garbage included."""
    return len(engine._heap)


def reference_next_event_time(engine) -> Optional[float]:
    """:meth:`Engine.next_event_time` for the single-heap reference engine."""
    heap = engine._heap
    while heap and heap[0].cancelled:
        heapq.heappop(heap)
    return heap[0].time if heap else None


def reference_run_until(engine, end_time: float) -> None:
    """:meth:`Engine.run_until` for the single-heap reference engine."""
    if end_time < engine.now:
        raise SimulationError(f"cannot run to t={end_time}, already at t={engine.now}")
    while True:
        head = reference_next_event_time(engine)
        if head is None or head > end_time:
            break
        engine.step()
    engine._now = float(end_time)


def interval(process) -> float:
    """A periodic process's firing interval in virtual seconds."""
    return process._interval


def delayed(
    engine,
    delay: float,
    callback: Callable[[], None],
    *,
    priority: int = Priority.DEFAULT,
    label: str = "delayed",
):
    """Schedule a one-shot callback after *delay* seconds; returns its event."""
    if delay < 0:
        raise SimulationError(f"delay must be >= 0, got {delay}")
    return engine.schedule_in(delay, callback, priority=priority, label=label)


# ------------------------------------------------------------------ tasks

def free_nodes(executor, at_time: Optional[float] = None) -> List[int]:
    """Ids of nodes free at *at_time* (default: now)."""
    t = executor._sim.now if at_time is None else at_time
    return [nid for nid, free in executor._node_free_at.items() if free <= t]


def edge_count(graph) -> int:
    """Number of data edges of a task graph."""
    return sum(len(v) for v in graph._children.values())


def graphs_equal(a, b) -> bool:
    """Whether two task graphs have the same nodes and edges."""
    return a.to_dict() == b.to_dict()


def queue_size(queue) -> int:
    """Number of queued tasks."""
    return len(queue._tasks)


def queued_tasks(queue) -> List[Task]:
    """A snapshot of the queued tasks in arrival order."""
    return list(queue._tasks)


def subscribe(queue, listener: Callable[[str, Task], None]) -> None:
    """Call ``listener(op, task)`` after each change to *queue*.

    *op* is ``"add"`` for a submit and ``"remove"`` for a remove or a
    cancel; the queue's own methods are wrapped on this instance.
    """

    def notifying(op: str, method: Callable) -> Callable:
        def call(*args):
            task = method(*args)
            listener(op, task)
            return task

        return call

    queue.submit = notifying("add", queue.submit)
    queue.remove = notifying("remove", queue.remove)
    queue.cancel = notifying("remove", queue.cancel)


def insert(queue, request: TaskRequest, position: int) -> Task:
    """Insert a request at *position* in arrival order (§2.2 'inserting')."""
    if not (0 <= position <= len(queue._tasks)):
        raise TaskError(
            f"insert position {position} out of range 0..{len(queue._tasks)}"
        )
    task = Task(queue._next_id, request)
    queue._next_id += 1
    task.mark_queued()
    queue._tasks.insert(position, task)
    queue._by_id[task.task_id] = task
    return task


def relative_deadline(request: TaskRequest) -> float:
    """Seconds between a request's submission and its deadline."""
    return request.deadline - request.submit_time


# ------------------------------------------------------------------ utils

def master_seed(rngs) -> int:
    """The master seed an RNG registry was created with."""
    return rngs._master_seed


def fresh(rngs, name: str) -> np.random.Generator:
    """A *new* generator for stream *name*, replacing any cached one."""
    gen = np.random.default_rng(derive_seed(rngs._master_seed, name))
    rngs._streams[name] = gen
    return gen


def names(rngs) -> Iterator[str]:
    """Names of the streams an RNG registry created so far."""
    return iter(sorted(rngs._streams))
