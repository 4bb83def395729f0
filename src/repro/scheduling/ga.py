"""The genetic-algorithm scheduling kernel (§2.1).

"The genetic algorithm utilises a fixed population size and stochastic
remainder selection" with the two-part coding scheme, specialised
crossover/mutation, the combined cost function of eq. (8) and the dynamic
fitness scaling of eq. (9).  "The algorithm is based on an evolutionary
process and is therefore able to absorb system changes such as the addition
or deletion of tasks" — :meth:`GAScheduler.add_task` and
:meth:`GAScheduler.remove_task` repair the live population instead of
restarting it.

Performance note: the object-level operators in ``tests/oracles.py`` and
the scalar schedule builder are the *reference* implementation — clear,
validated, and used by the property tests.  The kernel keeps its
population packed in NumPy arrays and runs one whole-population generation
loop (:mod:`repro.scheduling.vectorized`):

* ``order``   — ``(P, m)`` task-row indices in execution order;
* ``masks``   — ``(P, m, n)`` node allocations **keyed by task row**, not by
  position, which is what preserves "the node mapping associated with a
  particular task from one generation to the next" across crossover and
  task churn.

Property tests assert the packed evaluator and operators agree with the
reference implementations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ScheduleError, ValidationError
from repro.scheduling.batched import batched_insert
from repro.scheduling.coding import SolutionString
from repro.scheduling.cost import (
    IDLE_WEIGHTERS,
    CostBreakdown,
    CostWeights,
    schedule_cost,
)
from repro.scheduling.evalreuse import EvalReuseStats, clamp_availability
from repro.scheduling.fitness import scale_fitness
from repro.scheduling.schedule import Schedule, build_schedule
from repro.scheduling.vectorized import (
    CostEvaluator,
    bernoulli_indices,
    pair_choices,
    pair_index,
    swap_choices,
    vectorized_children,
    vectorized_mutation,
    vectorized_selection,
)
from repro.scheduling.warmstart import (
    greedy_allocation_masks,
    greedy_allocation_masks_batch,
    seed_masks,
    warmstart_orders,
)

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.obs.trace import Tracer

__all__ = ["GAConfig", "GAScheduler"]

#: duration(task_id, n_allocated) -> predicted seconds on that many nodes.
DurationFn = Callable[[int, int], float]

#: Operator rates of the generation loop: conventional values the paper
#: does not publish.  Each child pair crosses over with
#: ``CROSSOVER_PROBABILITY``; each child swaps two ordering positions with
#: ``SWAP_PROBABILITY`` and flips every mapping bit with
#: ``BITFLIP_PROBABILITY``.
CROSSOVER_PROBABILITY = 0.8
SWAP_PROBABILITY = 0.2
BITFLIP_PROBABILITY = 0.005
#: Best individuals copied unchanged into every next generation.
ELITE_COUNT = 2


@dataclass(frozen=True)
class GAConfig:
    """Tunables of the GA kernel.

    Defaults follow §2.2's description (population of 50); the operator
    rates are the module constants above.
    """

    population_size: int = 50
    weights: CostWeights = field(default_factory=CostWeights)
    idle_weighting: str = "linear"  # "linear" | "uniform" | "exponential"
    #: Memetic refinement: each generation, the best individual's *ordering*
    #: is re-mapped greedily (per-task earliest-free, completion-optimal
    #: allocation) and the result replaces the worst individual if it wins;
    #: the re-map also rides the once-per-call warm-start injection.
    #: Compensates for the generation budget an event-driven run has
    #: compared to the paper's continuously evolving GA; ablatable.
    memetic: bool = True
    #: Number of list-scheduling warm-start seeds
    #: (:mod:`repro.scheduling.warmstart`) injected over the worst
    #: individuals once per ``evolve`` call (``0`` disables injection;
    #: the memetic greedy re-map of the incumbent best rides along as one
    #: extra candidate while ``memetic`` is on).  Injection replaces at
    #: most ``population_size - 1`` individuals, so a count at or above
    #: the population size is valid and simply clamps.
    warmstart_count: int = 8

    def __post_init__(self) -> None:
        if self.population_size <= ELITE_COUNT:
            raise ValidationError(
                f"population_size must exceed ELITE_COUNT ({ELITE_COUNT})"
            )
        if self.idle_weighting not in ("linear", "uniform", "exponential"):
            raise ValidationError(f"unknown idle weighting {self.idle_weighting!r}")
        if self.warmstart_count < 0:
            raise ValidationError("warmstart_count must be >= 0")


class GAScheduler:
    """An evolving population of schedules over a dynamic task set.

    Parameters
    ----------
    n_nodes:
        Number of processing nodes in the local resource.
    duration:
        PACE prediction callback ``duration(task_id, count)``.
    rng:
        Random generator driving all stochastic choices.
    config:
        Kernel tunables.
    duration_row:
        Optional batched prediction callback ``duration_row(task_id)``
        returning the whole ``[t(1) .. t(n)]`` row at once (e.g. through
        :meth:`repro.pace.evaluation.EvaluationEngine.evaluate_counts`).
        Falls back to *n* scalar ``duration`` calls when omitted.

    Usage
    -----
    ``add_task`` / ``remove_task`` maintain the optimisation set T;
    ``evolve(generations, node_free_times, ref_time)`` advances the
    population; ``best_solution()`` returns the incumbent.
    """

    def __init__(
        self,
        n_nodes: int,
        duration: DurationFn,
        rng: np.random.Generator,
        config: GAConfig = GAConfig(),
        *,
        duration_row: Optional[Callable[[int], np.ndarray]] = None,
        tracer: Optional[Tracer] = None,
        trace_name: str = "",
    ) -> None:
        if n_nodes < 1:
            raise ValidationError(f"n_nodes must be >= 1, got {n_nodes}")
        self._n = int(n_nodes)
        self._tracer = tracer
        self._trace_name = trace_name
        self._duration = duration
        self._duration_row_fn = duration_row
        self._rng = rng
        self._config = config
        # Head and tail parent slots of a generation's crossed children.
        self._pair_slots = pair_index(config.population_size - ELITE_COUNT)
        self._id_order: List[int] = []  # task row -> task id
        self._row_of: Dict[int, int] = {}
        self._dtable = np.empty((0, self._n), dtype=float)
        self._deadline_arr = np.empty(0, dtype=float)
        # Workflow extensions, all inert at their defaults: b-level
        # priorities (0.0 everywhere = no effect), start-time floors
        # (absent = unconstrained), and precedence predecessors (absent =
        # independent tasks).  ``_constraint_cache`` holds the row-keyed
        # (pred matrix, floor vector) pair derived lazily from these.
        self._priority_arr = np.empty(0, dtype=float)
        self._floor: Dict[int, float] = {}
        self._preds: Dict[int, Tuple[int, ...]] = {}
        self._constraint_cache: Optional[
            Tuple[Optional[np.ndarray], Optional[np.ndarray]]
        ] = None
        # Packed population; allocated lazily when the first task arrives.
        self._order: Optional[np.ndarray] = None  # (P, m) int rows
        self._masks: Optional[np.ndarray] = None  # (P, m, n) bool by row
        self._generations = 0
        # (generation index, best cost) samples, one per evolved generation.
        self._history: List[Tuple[int, float]] = []
        # Costing counters + the event-level cost cache: the final cost
        # vector of the last full costing, keyed by the availability it
        # was computed under.  Invalidated whenever the population or its
        # constraints change outside a costing (task churn, floors,
        # mid-evolve).
        self._stats = EvalReuseStats()
        self._cached_costs: Optional[np.ndarray] = None
        self._cost_cache_key: Optional[Tuple[bytes, float]] = None

    # ------------------------------------------------------------------ state

    @property
    def config(self) -> GAConfig:
        """The kernel configuration."""
        return self._config

    @property
    def task_ids(self) -> Tuple[int, ...]:
        """The optimisation set T, in row order.

        Row order is insertion order until the first removal; swap-remove
        then moves the last row into the vacated slot, so treat this as an
        unordered set (each individual's *ordering string* — not the row
        numbering — carries execution order).
        """
        return tuple(self._id_order)

    @property
    def n_tasks(self) -> int:
        """Number of tasks currently optimised."""
        return len(self._id_order)

    @property
    def generations(self) -> int:
        """Total generations evolved so far."""
        return self._generations

    @property
    def stats(self) -> EvalReuseStats:
        """Costing counters (live object).

        Rows costed and evaluated, elite carries, event-cache hits/misses
        and warm-start replacements — the observability behind
        docs/performance.md's measured numbers.
        """
        return self._stats

    @property
    def last_costs(self) -> Optional[np.ndarray]:
        """The cached final cost vector of the last costing (copy).

        Valid for the *current* population under the availability it was
        computed with (see :meth:`best_solution`); ``None`` after task
        churn or before any evaluation.
        """
        if self._cached_costs is None:
            return None
        return self._cached_costs.copy()

    @property
    def history(self) -> List[Tuple[int, float]]:
        """Per-generation ``(generation, best cost)`` samples (copy).

        Costs across scheduling events are not directly comparable — the
        task set and node availability change — but within one event the
        series shows the convergence the GA achieved.
        """
        return list(self._history)

    def deadline(self, task_id: int) -> float:
        """The absolute deadline δ of *task_id*."""
        row = self._require_row(task_id)
        return float(self._deadline_arr[row])

    def _require_row(self, task_id: int) -> int:
        try:
            return self._row_of[task_id]
        except KeyError:
            raise ScheduleError(f"GA does not hold task {task_id}") from None

    @property
    def population(self) -> List[SolutionString]:
        """The population materialised as solution strings (API/testing)."""
        if self._order is None:
            return []
        return [self._solution_at(p) for p in range(self._order.shape[0])]

    def _solution_at(self, p: int) -> SolutionString:
        assert self._order is not None and self._masks is not None
        ordering = [self._id_order[r] for r in self._order[p]]
        mapping = {
            self._id_order[r]: self._masks[p, r].copy()
            for r in range(len(self._id_order))
        }
        return SolutionString(ordering, mapping)

    # ----------------------------------------------------------- task churn

    def _duration_row(self, task_id: int) -> np.ndarray:
        if self._duration_row_fn is not None:
            row = np.asarray(self._duration_row_fn(task_id), dtype=float)
            if row.shape != (self._n,):
                raise ScheduleError(
                    f"duration_row for task {task_id} has shape {row.shape}, "
                    f"expected ({self._n},)"
                )
        else:
            row = np.array(
                [self._duration(task_id, k) for k in range(1, self._n + 1)],
                dtype=float,
            )
        # min and max propagate NaN, so both in (0, inf) ⟺ all finite and > 0.
        if not (
            np.minimum.reduce(row) > 0 and np.maximum.reduce(row) < np.inf
        ):
            raise ScheduleError(f"durations for task {task_id} must be finite and > 0")
        return row

    def add_task(
        self,
        task_id: int,
        deadline: float,
        *,
        priority: float = 0.0,
        floor: Optional[float] = None,
        predecessors: Sequence[int] = (),
    ) -> None:
        """Add a task to the optimisation set, splicing it into the population.

        Existing individuals keep their orderings/mappings; the new task is
        spliced in (individual 0 appends in arrival order — a standing
        greedy candidate — the rest at random positions) with the masks of
        :func:`~repro.scheduling.warmstart.seed_masks`, so the population
        "absorbs" the change rather than restarting.

        The keyword extensions carry workflow structure and are inert at
        their defaults: *priority* (a b-level) biases the warm-start
        orderings, *floor* is an absolute earliest start time (data still
        staging in, or a dispatched parent's booked completion), and
        *predecessors* lists co-queued task ids that must precede this one
        in every individual's ordering (enforced by stable topological
        repair and respected by the evaluator).
        """
        if task_id in self._row_of:
            raise ScheduleError(f"task {task_id} already in optimisation set")
        self._invalidate_cost_cache()
        new_row = len(self._id_order)
        self._id_order.append(task_id)
        self._row_of[task_id] = new_row
        durations = self._duration_row(task_id)
        self._dtable = np.concatenate((self._dtable, durations[None, :]))
        self._deadline_arr = np.concatenate((self._deadline_arr, (float(deadline),)))
        self._priority_arr = np.concatenate((self._priority_arr, (float(priority),)))
        if floor is not None:
            self._floor[task_id] = float(floor)
        if predecessors:
            self._preds[task_id] = tuple(int(p) for p in predecessors)
        self._constraint_cache = None
        pop = self._config.population_size
        if self._order is None:
            self._order = np.zeros((pop, 1), dtype=np.int64)
            self._masks = seed_masks(durations, pop, self._rng)[:, None, :]
            return
        assert self._masks is not None
        p, m = self._order.shape
        positions = self._rng.integers(0, m + 1, size=p)
        positions[0] = m  # individual 0 keeps arrival order
        self._order = batched_insert(self._order, positions, new_row)
        self._masks = np.concatenate(
            [self._masks, seed_masks(durations, p, self._rng)[:, None, :]], axis=1
        )
        if self._preds:  # no predecessors, nothing to repair
            self._repair_orders(self._order)

    def set_floor(self, task_id: int, floor: float) -> None:
        """Raise *task_id*'s earliest-start floor (monotonic: ``max`` wins).

        The scheduler calls this when a predecessor leaves the optimisation
        set for the executor — the precedence constraint collapses to "not
        before the parent's booked completion" — and when a staging input's
        arrival estimate moves.
        """
        self._require_row(task_id)
        current = self._floor.get(task_id)
        if current is not None and current >= floor:
            return
        self._floor[task_id] = float(floor)
        self._constraint_cache = None
        self._invalidate_cost_cache()

    def remove_task(self, task_id: int) -> None:
        """Remove a task (it started executing, finished, or was cancelled).

        Swap-remove: the *last* task row moves into the vacated slot, so
        the row-key bookkeeping is O(1) instead of renumbering every task
        above the removed row.  Row keys are arbitrary labels — every
        per-row structure (``_dtable``, ``_deadline_arr``, the mask axis)
        is re-keyed consistently and each individual's explicit ordering
        string is renamed, so the population is unchanged as a set of
        solutions (see DESIGN.md on the packed-array invariants).
        """
        row = self._require_row(task_id)
        self._invalidate_cost_cache()
        del self._row_of[task_id]
        self._floor.pop(task_id, None)
        self._preds.pop(task_id, None)
        self._constraint_cache = None
        last = len(self._id_order) - 1
        moved_id = self._id_order[last]
        self._id_order[row] = moved_id
        self._id_order.pop()
        assert self._order is not None and self._masks is not None
        if not self._id_order:
            self._order = None
            self._masks = None
            self._dtable = np.empty((0, self._n), dtype=float)
            self._deadline_arr = np.empty(0, dtype=float)
            self._priority_arr = np.empty(0, dtype=float)
            self._floor.clear()
            self._preds.clear()
            return
        if row != last:
            self._row_of[moved_id] = row
            self._dtable[row] = self._dtable[last]
            self._deadline_arr[row] = self._deadline_arr[last]
            self._priority_arr[row] = self._priority_arr[last]
            self._masks[:, row] = self._masks[:, last]
        self._dtable = self._dtable[:last]
        self._deadline_arr = self._deadline_arr[:last]
        self._priority_arr = self._priority_arr[:last]
        p, m = self._order.shape
        new_order = self._order[self._order != row].reshape(p, m - 1)
        if row != last:
            new_order[new_order == last] = row
        self._order = new_order
        self._masks = self._masks[:, :last]

    # ------------------------------------------------------------- evaluation

    def _invalidate_cost_cache(self) -> None:
        """Drop the event-level cost cache (population about to change)."""
        self._cached_costs = None
        self._cost_cache_key = None

    def _constraint_arrays(
        self,
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """Row-keyed ``(pred matrix, floor vector)``, or ``(None, None)``.

        The pred matrix is ``(m, maxP)`` of predecessor *rows* padded with
        the sentinel row ``m``; the floor vector is ``(m,)`` with ``-inf``
        where unconstrained.  A constraint is active only while **both**
        ends are still in the optimisation set — a dispatched parent's
        influence survives as the child's floor instead.  Both arrays are
        ``None`` whenever no constraint of that kind is active, which is
        what keeps the independent-task evaluation path untouched.
        """
        if self._constraint_cache is None:
            m = len(self._id_order)
            pred_rows: Dict[int, List[int]] = {}
            for child, parents in self._preds.items():
                crow = self._row_of.get(child)
                if crow is None:
                    continue
                rows = [self._row_of[p] for p in parents if p in self._row_of]
                if rows:
                    pred_rows[crow] = rows
            pred_mat = None
            if pred_rows:
                maxp = max(len(v) for v in pred_rows.values())
                pred_mat = np.full((m, maxp), m, dtype=np.int64)
                for crow, rows in pred_rows.items():
                    pred_mat[crow, : len(rows)] = rows
            floor_vec = None
            entries = [
                (self._row_of[t], f)
                for t, f in self._floor.items()
                if t in self._row_of
            ]
            if entries:
                floor_vec = np.full(m, -np.inf)
                for r, f in entries:
                    floor_vec[r] = f
            self._constraint_cache = (pred_mat, floor_vec)
        return self._constraint_cache

    def _repair_orders(self, order: np.ndarray) -> None:
        """Stable topological repair of every ordering string, in place.

        One array pass finds the violators: it scatters every
        individual's task positions into a ``(P, m + 1)`` table and
        compares each task's position with its latest predecessor's.
        Individuals already respecting every active precedence
        constraint are untouched (the common case: crossover splices and
        most swap mutations preserve validity); violators are rebuilt by
        a stable Kahn pass over per-row predecessor tuples — tasks keep
        their relative order except where a predecessor must be pulled
        ahead.  A no-op when no constraints are active.
        """
        pred_mat, _ = self._constraint_arrays()
        if pred_mat is None:
            return
        pop, m = order.shape
        pos = np.empty((pop, m + 1), dtype=np.int64)
        pos[:, m] = -1  # the sentinel row never binds
        pos[np.arange(pop)[:, None], order] = np.arange(m)
        latest_pred = np.maximum.reduce(pos[:, pred_mat], axis=2)  # (P, m)
        violators = np.flatnonzero(
            np.logical_or.reduce(pos[:, :m] <= latest_pred, axis=1)
        )
        if violators.size == 0:
            return
        preds = [tuple(q for q in row if q != m) for row in pred_mat.tolist()]
        for p in violators.tolist():
            placed: set = set()
            out: List[int] = []
            pending = order[p].tolist()
            while pending:
                for i, r in enumerate(pending):
                    if placed.issuperset(preds[r]):
                        out.append(r)
                        placed.add(r)
                        del pending[i]
                        break
                else:  # pragma: no cover - graphs are validated acyclic
                    raise ScheduleError(
                        "precedence constraints contain a cycle"
                    )
            order[p] = out

    def _store_cost_cache(self, costs: np.ndarray, key: Tuple[bytes, float]) -> None:
        self._cached_costs = costs
        self._cost_cache_key = key

    def _cached_costs_for(
        self, node_free_times: Sequence[float], ref_time: float
    ) -> Optional[np.ndarray]:
        """The cached cost vector iff availability matches, else ``None``."""
        if self._cached_costs is None or self._cost_cache_key is None:
            return None
        if clamp_availability(node_free_times, ref_time)[1] != self._cost_cache_key:
            return None
        return self._cached_costs

    def _evaluator(
        self, node_free_times: Sequence[float], ref_time: float
    ) -> CostEvaluator:
        """The eq.-(8) evaluator for this availability.

        The single evaluator,
        :class:`~repro.scheduling.vectorized.CostEvaluator`, over this
        kernel's duration and deadline tables, carrying the active
        workflow constraints (start floors and the predecessor completion
        track).  ``evolve`` builds one per call and costs every batch of
        the call through it.
        """
        pred_mat, floor_vec = self._constraint_arrays()
        return CostEvaluator(
            self._dtable,
            self._deadline_arr,
            node_free_times,
            ref_time,
            self._config.weights,
            self._config.idle_weighting,
            floors=floor_vec,
            preds=pred_mat,
        )

    def _costs(
        self,
        order: np.ndarray,
        masks: np.ndarray,
        node_free_times: Sequence[float],
        ref_time: float,
    ) -> np.ndarray:
        """eq.-(8) cost of every individual in ``(order, masks)``."""
        return self._evaluate(
            self._evaluator(node_free_times, ref_time), order, masks
        )

    def _evaluate(
        self,
        evaluate: CostEvaluator,
        order: np.ndarray,
        masks: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Cost ``(order, masks)`` through *evaluate* (into *out* if given).

        Every row it costs counts as costed *and* evaluated.
        """
        costs = evaluate(order, masks, out)
        stats = self._stats
        stats.evaluate_calls += 1
        stats.rows_costed += costs.size
        stats.rows_evaluated += costs.size
        return costs

    # --------------------------------------------------------------- operators

    def greedy_mapping(
        self, order_row: np.ndarray, node_free_times: Sequence[float], ref_time: float
    ) -> np.ndarray:
        """Completion-optimal masks for a fixed task order — ``(m, n)`` bool.

        Walks the tasks in *order_row* (task rows); each is allocated the
        earliest-free node subset minimising its completion time (the same
        argument as :func:`repro.scheduling.fifo.earliest_free_allocation`:
        on a homogeneous resource only the k earliest-free nodes need
        considering for each size k).  Delegates to the shared allocator in
        :mod:`repro.scheduling.warmstart`, which also maps the warm-start
        seed orderings.
        """
        return greedy_allocation_masks(
            order_row, self._dtable, node_free_times, ref_time
        )

    # --------------------------------------------------------------- evolution

    def _warmstart_inject(
        self,
        costs: np.ndarray,
        evaluate: CostEvaluator,
        node_free_times: Sequence[float],
        ref_time: float,
    ) -> np.ndarray:
        """Replace the worst individuals with winning list-scheduling seeds.

        Once per ``evolve`` call: build ``warmstart_count`` seeds
        (:func:`repro.scheduling.warmstart.warmstart_orders`) plus —
        while ``memetic`` is on — the greedy re-map of the incumbent best
        ordering, cost them all in one evaluator call, and replace the
        worst individuals pairwise (best seed against worst incumbent)
        wherever the seed wins.  With elitism this bounds the kernel's
        best cost by the best greedy schedule from generation 0 on.
        """
        assert self._order is not None and self._masks is not None
        cfg = self._config
        pop = self._order.shape[0]
        order_parts = []
        if cfg.warmstart_count > 0:
            # Priorities feed the seed rules only when some task carries a
            # nonzero b-level — the all-zero default keeps the call (and
            # its RNG draws) identical to the independent-task path.
            priorities = (
                self._priority_arr
                if np.logical_or.reduce(self._priority_arr != 0.0)
                else None
            )
            order_parts.append(
                warmstart_orders(
                    self._dtable,
                    self._deadline_arr,
                    cfg.warmstart_count,
                    self._rng,
                    priorities=priorities,
                )
            )
        if cfg.memetic:
            order_parts.append(self._order[int(costs.argmin())][None, :])
        if not order_parts:
            return costs
        w_orders = np.concatenate(order_parts)
        self._repair_orders(w_orders)
        w_masks = greedy_allocation_masks_batch(
            w_orders, self._dtable, node_free_times, ref_time
        )
        seed_costs = self._evaluate(evaluate, w_orders, w_masks)
        count = min(seed_costs.size, pop - 1)
        seed_rank = seed_costs.argsort(kind="stable")[:count]
        worst_rank = costs.argsort(kind="stable")[::-1][:count]
        take = seed_costs[seed_rank] < costs[worst_rank]
        if np.logical_or.reduce(take):
            rows = worst_rank[take]
            seeds = seed_rank[take]
            self._order[rows] = w_orders[seeds]
            self._masks[rows] = w_masks[seeds]
            costs = costs.copy()
            costs[rows] = seed_costs[seeds]
            self._stats.warmstart_seeds += int(np.add.reduce(take))
        return costs

    def _memetic_inject(
        self,
        costs: np.ndarray,
        cached: Optional[Tuple[bytes, np.ndarray, np.ndarray, float]],
        evaluate: CostEvaluator,
        node_free_times: Sequence[float],
        ref_time: float,
    ) -> Optional[Tuple[bytes, np.ndarray, np.ndarray, float]]:
        """The per-generation memetic step, with its candidate cached.

        Greedily re-maps the incumbent best ordering and injects the
        result over the worst individual when it wins.  The greedy re-map
        is a pure function of (ordering, availability) and availability
        is fixed within one ``evolve`` call, so this keeps the last
        ``(ordering bytes, ordering, masks, cost)`` candidate and recomputes
        only when the incumbent's ordering changed.  The candidate starts
        empty on every call, so each call builds at least one (224 over
        the 203 calls of a ``casestudy`` run at seed 2003), although the
        call's warm-start batch already mapped the same ordering in most
        of them: its masks could be reused, its cost not, because an
        eq.-(8) cost depends on its batch (DESIGN.md §4).  Re-*injection*
        happens every generation the candidate wins (selection churn can
        drop a previously injected copy), which is a pair of array
        copies, not an evaluation.  Mutates *costs* in place (the caller
        owns the freshly built vector) and returns the candidate.
        """
        assert self._order is not None and self._masks is not None
        best = int(costs.argmin())
        border = self._order[best]
        key = border.tobytes()
        if cached is None or key != cached[0]:
            cand_masks = greedy_allocation_masks(
                border, self._dtable, node_free_times, ref_time
            )
            cand_cost = float(
                self._evaluate(
                    evaluate, border[None, :], cand_masks[None, :, :]
                )[0]
            )
            cached = (key, border.copy(), cand_masks, cand_cost)
        _, cand_order, cand_masks, cand_cost = cached
        worst = int(costs.argmax())
        if worst != best and cand_cost < costs[worst]:
            self._order[worst] = cand_order
            self._masks[worst] = cand_masks
            costs[worst] = cand_cost
        return cached

    def evolve(
        self,
        generations: int,
        node_free_times: Sequence[float],
        ref_time: float,
    ) -> float:
        """Advance the population *generations* steps; returns the best cost.

        A generation is: scale costs to fitness (eq. 9) → carry elites →
        stochastic-remainder selection → pairwise two-part crossover →
        two-part mutation → precedence repair → cost the children
        (eq. 8).  Around that cycle:

        * **one evaluator per call** — availability is fixed within a
          call, so its set-up runs once (:meth:`_evaluator`);
        * **warm-start injection** once per call, before the first
          generation (:meth:`_warmstart_inject`);
        * **children-only costing** — elites re-enter unchanged, so their
          costs are carried structurally (counted as ``carry_hits``);
        * **array-drawn randomness** — a fixed number of RNG calls per
          generation, drawn in blocks of up to 32 generations and turned
          into operator inputs once per block (see
          :mod:`repro.scheduling.vectorized`);
        * **one fresh population per generation** — elites and children
          are written straight into new ``(P, m)``, ``(P, m, n)`` and
          ``(P,)`` arrays;
        * **per-call decisions** — whether precedence repair can change
          anything and the costing counters are settled once per call, and
          the parent pairing (:func:`pair_index`) once per kernel;
        * the **memetic step** while ``memetic`` is on
          (:meth:`_memetic_inject`).

        The final cost vector is retained so an immediately following
        :meth:`best_solution` under the same availability pays no extra
        evaluation.
        """
        if generations < 0:
            raise ValidationError(f"generations must be >= 0, got {generations}")
        if self._order is None:
            return 0.0
        assert self._masks is not None
        cfg = self._config
        stats = self._stats
        rng = self._rng
        self._invalidate_cost_cache()
        generations_before = self._generations
        history_before = len(self._history)
        evaluate = self._evaluator(node_free_times, ref_time)
        costs = self._evaluate(evaluate, self._order, self._masks)
        costs = self._warmstart_inject(costs, evaluate, node_free_times, ref_time)
        repairs = self._constraint_arrays()[0] is not None
        memetic = cfg.memetic
        pop = cfg.population_size
        m = len(self._id_order)
        n = self._n
        n_children = pop - ELITE_COUNT
        pairs = n_children // 2
        flip_total = n_children * m * n
        order_dtype = self._order.dtype
        history = self._history
        generation = self._generations
        candidate: Optional[Tuple[bytes, np.ndarray, np.ndarray, float]] = None
        cuts = thresholds = None
        swaps = None
        done = 0
        while done < generations:
            # Pre-draw a block of generations' positional randomness in a
            # handful of array RNG calls (a scalar `rng.integers` costs as
            # much as a whole-population array draw) and turn it into
            # operator inputs once for the whole block.
            block = min(32, generations - done)
            if pairs:
                cross = rng.random((block, pairs)) < CROSSOVER_PROBABILITY
                cut_draws = rng.integers(0, m + 1, size=(block, pairs))
                point_draws = rng.integers(0, m * n + 1, size=(block, pairs))
                cuts, thresholds = pair_choices(cross, cut_draws, point_draws, m, n)
            if m >= 2:
                swap_flags = rng.random((block, n_children)) < SWAP_PROBABILITY
                swap_i = rng.integers(0, m, size=(block, n_children))
                swap_j = rng.integers(0, m - 1, size=(block, n_children))
                swaps = swap_choices(swap_flags, swap_i, swap_j, m)
            for t in range(block):
                fitness = scale_fitness(costs)
                elite_idx = costs.argsort(kind="stable")[:ELITE_COUNT]
                parents = vectorized_selection(fitness, n_children, rng)
                order = np.empty((pop, m), dtype=order_dtype)
                masks = np.empty((pop, m, n), dtype=bool)
                next_costs = np.empty(pop)
                # Elites first.  mode="clip": the indices are in range, and
                # it skips the buffered copy the default mode makes for out.
                self._order.take(
                    elite_idx, axis=0, out=order[:ELITE_COUNT], mode="clip"
                )
                self._masks.take(
                    elite_idx, axis=0, out=masks[:ELITE_COUNT], mode="clip"
                )
                costs.take(elite_idx, out=next_costs[:ELITE_COUNT], mode="clip")
                child_order = order[ELITE_COUNT:]
                child_masks = masks[ELITE_COUNT:]
                vectorized_children(
                    self._order,
                    self._masks,
                    parents,
                    cuts[t] if pairs else None,
                    thresholds[t] if pairs else None,
                    child_order,
                    child_masks,
                    self._pair_slots,
                )
                flip_idx = bernoulli_indices(rng, flip_total, BITFLIP_PROBABILITY)
                vectorized_mutation(
                    child_order,
                    child_masks,
                    swaps[t] if swaps is not None else None,
                    flip_idx,
                    rng,
                )
                if repairs:
                    self._repair_orders(child_order)
                evaluate(child_order, child_masks, next_costs[ELITE_COUNT:])
                self._order = order
                self._masks = masks
                costs = next_costs
                if memetic:
                    candidate = self._memetic_inject(
                        costs, candidate, evaluate, node_free_times, ref_time
                    )
                generation += 1
                history.append((generation, float(np.minimum.reduce(costs))))
            done += block
        # Each generation costed its children in one evaluator call and
        # carried its elites' costs.
        stats.evaluate_calls += generations
        stats.rows_costed += generations * pop
        stats.rows_evaluated += generations * n_children
        stats.carry_hits += generations * ELITE_COUNT
        self._generations = generation
        self._store_cost_cache(costs, evaluate.key)
        best_cost = float(np.minimum.reduce(costs))
        if self._tracer is not None:
            from repro.obs.records import EvolveStep

            self._tracer.emit(
                EvolveStep(
                    t=float(ref_time),
                    resource=self._trace_name,
                    n_tasks=self.n_tasks,
                    generations=self._generations - generations_before,
                    best_cost=best_cost,
                    history=tuple(
                        best for _, best in self._history[history_before:]
                    ),
                )
            )
        return best_cost

    def best_solution(
        self, node_free_times: Sequence[float], ref_time: float
    ) -> SolutionString:
        """The lowest-cost individual under the given availability.

        The cost vector retained by the last :meth:`evolve` (or
        ``best_solution``) call is reused when the population and the
        availability key are unchanged — a scheduling event's ``evolve``
        → dispatch → ``best_solution`` sequence then pays no second full
        evaluation.  Any ``add_task`` / ``remove_task`` / ``set_floor`` /
        availability change recomputes.
        """
        if self._order is None:
            raise ScheduleError("population is empty (no tasks)")
        assert self._masks is not None
        costs = self._cached_costs_for(node_free_times, ref_time)
        if costs is not None:
            self._stats.event_cache_hits += 1
        else:
            self._stats.event_cache_misses += 1
            evaluate = self._evaluator(node_free_times, ref_time)
            costs = self._evaluate(evaluate, self._order, self._masks)
            self._store_cost_cache(costs, evaluate.key)
        return self._solution_at(int(costs.argmin()))

    def schedule(
        self,
        solution: SolutionString,
        node_free_times: Sequence[float],
        ref_time: float,
        duration: Optional[DurationFn] = None,
    ) -> Schedule:
        """*solution*'s earliest-start schedule under the kernel's constraints.

        The one place a schedule is built under the start floors and
        precedence the kernel holds.  *duration* defaults to the kernel's
        duration table; dispatch passes the scheduler's live PACE estimate.
        """
        return build_schedule(
            solution,
            node_free_times,
            duration or self._table_duration,
            ref_time=ref_time,
            floors=self._floor or None,
            predecessors=self._preds or None,
        )

    def _table_duration(self, task_id: int, count: int) -> float:
        return float(self._dtable[self._require_row(task_id)][count - 1])

    def breakdown(self, schedule: Schedule) -> CostBreakdown:
        """eq. (8) of a built *schedule* under the kernel's deadlines and weights.

        The traced ``sched.cost`` record of a dispatch, and the scalar
        reference cost.
        """
        return schedule_cost(
            schedule,
            {tid: self.deadline(tid) for tid in self.task_ids},
            self._config.weights,
            idle_weighter=IDLE_WEIGHTERS[self._config.idle_weighting],
        )

    def reference_cost(
        self,
        solution: SolutionString,
        node_free_times: Sequence[float],
        ref_time: float,
    ) -> float:
        """Scalar eq.-(8) cost of one solution: the evaluator's test reference."""
        return self.breakdown(
            self.schedule(solution, node_free_times, ref_time)
        ).combined

    def cost_of(
        self,
        solution: SolutionString,
        node_free_times: Sequence[float],
        ref_time: float,
    ) -> float:
        """Vectorised eq.-(8) cost of one externally supplied solution."""
        order = np.array([[self._require_row(t) for t in solution.ordering]])
        masks = np.zeros((1, self.n_tasks, self._n), dtype=bool)
        for tid in solution.ordering:
            masks[0, self._row_of[tid]] = solution.mask(tid)
        return float(self._costs(order, masks, node_free_times, ref_time)[0])

    # ------------------------------------------------------------- checkpoint

    def snapshot_state(self) -> dict:
        """The full kernel state: population arrays, task rows, constraints, stats.

        The RNG is *not* included — it belongs to the run's
        :class:`~repro.utils.rng.RngRegistry` and is snapshot there.  Nor
        is the event-level cost cache: a restored kernel is next reached
        through ``evolve``, ``add_task``, ``remove_task`` or a raising
        ``set_floor``, and each drops it (the scheduler reads the
        incumbent only right after ``evolve``).
        """
        from repro.checkpoint.codec import encode_ndarray

        state = {
            "id_order": list(self._id_order),
            "dtable": encode_ndarray(self._dtable),
            "deadlines": [float(d) for d in self._deadline_arr],
            "order": None if self._order is None else encode_ndarray(self._order),
            "masks": None if self._masks is None else encode_ndarray(self._masks),
            "generations": self._generations,
            "history": [[int(g), float(c)] for g, c in self._history],
            "stats": self._stats.snapshot_counters(),
        }
        # Workflow keys appear only when carrying non-default state, so
        # independent-task snapshots stay byte-identical to the seed's.
        if np.any(self._priority_arr != 0.0):
            state["priorities"] = [float(v) for v in self._priority_arr]
        if self._floor:
            state["floors"] = [
                [int(t), float(f)] for t, f in sorted(self._floor.items())
            ]
        if self._preds:
            state["preds"] = [
                [int(t), [int(p) for p in parents]]
                for t, parents in sorted(self._preds.items())
            ]
        return state

    def restore_state(self, state: dict) -> None:
        """Rebuild the population exactly as snapshot (RNG restored elsewhere)."""
        from repro.checkpoint.codec import decode_ndarray

        self._id_order = [int(t) for t in state["id_order"]]
        self._row_of = {tid: row for row, tid in enumerate(self._id_order)}
        self._dtable = decode_ndarray(state["dtable"])
        self._deadline_arr = np.asarray(state["deadlines"], dtype=float)
        priorities = state.get("priorities")
        self._priority_arr = (
            np.zeros(len(self._id_order), dtype=float)
            if priorities is None
            else np.asarray(priorities, dtype=float)
        )
        self._floor = {int(t): float(f) for t, f in state.get("floors", [])}
        self._preds = {
            int(t): tuple(int(p) for p in parents)
            for t, parents in state.get("preds", [])
        }
        self._constraint_cache = None
        self._order = (
            None if state["order"] is None else decode_ndarray(state["order"])
        )
        self._masks = (
            None if state["masks"] is None else decode_ndarray(state["masks"])
        )
        self._generations = int(state["generations"])
        self._history = [(int(g), float(c)) for g, c in state["history"]]
        self._stats.restore_counters(state["stats"])
        self._invalidate_cost_cache()
