"""Property-based tests for the scheduling core.

These pin the key equivalences the performance work relies on:

* the vectorised population evaluator equals the scalar reference
  (schedule builder + cost function) for arbitrary solutions, with and
  without workflow constraints (start floors and precedence);
* the O(n log n) FIFO allocation search equals the literal 2^n − 1
  enumeration;
* schedule construction never double-books a node and always starts
  allocations in unison at the latest free time.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduling.coding import SolutionString
from repro.scheduling.fifo import earliest_free_allocation, exhaustive_allocation
from repro.scheduling.ga import GAConfig, GAScheduler
from repro.scheduling.schedule import build_schedule


@st.composite
def scheduling_instances(draw):
    """A random (tasks, nodes, durations, deadlines, free_times, solution)."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 6))
    durations = {
        tid: [draw(st.floats(0.5, 50.0)) for _ in range(n)] for tid in range(m)
    }
    deadlines = {tid: draw(st.floats(1.0, 200.0)) for tid in range(m)}
    free = [draw(st.floats(0.0, 30.0)) for _ in range(n)]
    order = draw(st.permutations(list(range(m))))
    masks = {}
    for tid in range(m):
        bits = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        if not any(bits):
            bits[draw(st.integers(0, n - 1))] = True
        masks[tid] = np.array(bits)
    solution = SolutionString(order, masks)
    return m, n, durations, deadlines, free, solution


@st.composite
def workflow_constraints(draw, m):
    """Start floors and an acyclic predecessor map over tasks ``0..m-1``.

    Parents always have lower ids, so the graph is acyclic; the drawn
    solution's ordering may still place a parent after its child, which
    both evaluators must treat alike (an unplaced parent does not bind).
    """
    floors = {
        tid: draw(st.floats(0.0, 40.0)) for tid in range(m) if draw(st.booleans())
    }
    preds = {}
    for tid in range(1, m):
        parents = [p for p in range(tid) if draw(st.booleans())]
        if parents:
            preds[tid] = parents
    return floors, preds


class TestVectorisedEvaluatorEquivalence:
    @given(
        instance=scheduling_instances(),
        weighting=st.sampled_from(["linear", "uniform", "exponential"]),
        ref_time=st.floats(0.0, 10.0),
        constrained=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_reference(self, instance, weighting, ref_time, constrained,
                               data):
        m, n, durations, deadlines, free, solution = instance
        floors, preds = (
            data.draw(workflow_constraints(m)) if constrained else ({}, {})
        )
        ga = GAScheduler(
            n,
            lambda tid, k: durations[tid][k - 1],
            np.random.default_rng(0),
            GAConfig(population_size=4, idle_weighting=weighting),
        )
        for tid in range(m):
            ga.add_task(
                tid, deadlines[tid],
                floor=floors.get(tid), predecessors=preds.get(tid, ()),
            )
        fast = ga.cost_of(solution, free, ref_time)
        slow = ga.reference_cost(solution, free, ref_time)
        assert fast == pytest.approx(slow, rel=1e-9, abs=1e-9)


class TestFifoEquivalence:
    @given(
        free=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=6),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_fast_search_matches_exhaustive(self, free, data):
        n = len(free)
        durations = {
            k: data.draw(st.floats(0.5, 40.0), label=f"dur{k}")
            for k in range(1, n + 1)
        }
        fast = earliest_free_allocation(free, lambda k: durations[k])
        slow = exhaustive_allocation(free, lambda k: durations[k])
        assert fast.completion == pytest.approx(slow.completion)
        assert fast.size == slow.size


class TestScheduleInvariants:
    @given(instance=scheduling_instances())
    @settings(max_examples=150, deadline=None)
    def test_invariants(self, instance):
        m, n, durations, deadlines, free, solution = instance
        schedule = build_schedule(
            solution, free, lambda tid, k: durations[tid][k - 1]
        )
        # 1. Makespan is the latest completion.
        assert schedule.makespan == pytest.approx(
            max(e.completion for e in schedule.entries)
        )
        # 2. No node is double-booked.
        per_node: dict[int, list] = {}
        for e in schedule.entries:
            for nid in e.node_ids:
                per_node.setdefault(nid, []).append((e.start, e.completion))
        for intervals in per_node.values():
            intervals.sort()
            for (s1, e1), (s2, _) in zip(intervals, intervals[1:]):
                assert s2 >= e1 - 1e-9
        # 3. Tasks start no earlier than any allocated node's initial
        #    availability (unison start at the latest free time).
        for e in schedule.entries:
            for nid in e.node_ids:
                assert e.start >= min(free[nid], e.start) - 1e-9
        # 4. Idle pockets are non-negative and end at a task start.
        starts = {e.start for e in schedule.entries}
        for pocket in schedule.idle_pockets:
            assert pocket.duration > 0
            assert pocket.end in starts

    @given(instance=scheduling_instances())
    @settings(max_examples=60, deadline=None)
    def test_node_free_after_is_last_completion(self, instance):
        m, n, durations, deadlines, free, solution = instance
        schedule = build_schedule(
            solution, free, lambda tid, k: durations[tid][k - 1]
        )
        for nid in range(n):
            completions = [
                e.completion for e in schedule.entries if nid in e.node_ids
            ]
            expected = max(completions) if completions else max(free[nid], 0.0)
            assert schedule.node_free_after(nid) == pytest.approx(expected)
