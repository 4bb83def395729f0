"""Tests for the random and round-robin baseline schedulers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ScheduleError
from repro.scheduling.baselines import RandomScheduler, RoundRobinScheduler
from repro.scheduling.scheduler import LocalScheduler, SchedulingPolicy
from repro.tasks.task import TaskState
from tests.oracles import duration, makespan


def durations(values: dict):
    return lambda k: values[k]


FLAT = {1: 10.0, 2: 8.0, 3: 6.0, 4: 5.0}


class TestRandomScheduler:
    def test_places_and_books(self, rng):
        sched = RandomScheduler(4, rng)
        alloc = sched.place(0, durations(FLAT), now=0.0)
        assert 1 <= alloc.size <= 4
        assert alloc.start == 0.0
        assert sched.placement(0) == alloc
        assert makespan(sched) == alloc.completion

    def test_duplicate_rejected(self, rng):
        sched = RandomScheduler(4, rng)
        sched.place(0, durations(FLAT), now=0.0)
        with pytest.raises(ScheduleError):
            sched.place(0, durations(FLAT), now=0.0)

    def test_deterministic_given_seed(self):
        a = RandomScheduler(8, np.random.default_rng(5))
        b = RandomScheduler(8, np.random.default_rng(5))
        d = durations({k: 20.0 / k for k in range(1, 9)})
        for tid in range(5):
            assert a.place(tid, d, now=float(tid)) == b.place(tid, d, now=float(tid))

    def test_bookings_never_overlap(self, rng):
        sched = RandomScheduler(4, rng)
        d = durations(FLAT)
        for tid in range(10):
            sched.place(tid, d, now=float(tid))
        per_node: dict[int, list] = {}
        for tid in range(10):
            alloc = sched.placement(tid)
            for nid in alloc.node_ids:
                per_node.setdefault(nid, []).append((alloc.start, alloc.completion))
        for intervals in per_node.values():
            intervals.sort()
            for (s1, e1), (s2, _) in zip(intervals, intervals[1:]):
                assert s2 >= e1 - 1e-9


class TestRoundRobinScheduler:
    def test_optimal_count_chosen(self):
        sched = RoundRobinScheduler(4)
        v_shaped = durations({1: 10.0, 2: 6.0, 3: 8.0, 4: 12.0})
        alloc = sched.place(0, v_shaped, now=0.0)
        assert alloc.size == 2
        assert duration(alloc) == 6.0

    def test_cursor_stripes(self):
        sched = RoundRobinScheduler(4)
        d = durations({1: 5.0, 2: 9.0, 3: 9.0, 4: 9.0})  # k* = 1
        placements = [sched.place(tid, d, now=0.0) for tid in range(5)]
        assert [p.node_ids for p in placements[:4]] == [(0,), (1,), (2,), (3,)]
        assert placements[4].node_ids == (0,)  # wrapped around

    def test_wrap_across_boundary(self):
        sched = RoundRobinScheduler(4)
        d = durations({1: 10.0, 2: 10.0, 3: 4.0, 4: 10.0})  # k* = 3
        first = sched.place(0, d, now=0.0)
        second = sched.place(1, d, now=0.0)
        assert first.node_ids == (0, 1, 2)
        assert second.node_ids == (0, 1, 3)  # 3, then wraps to 0, 1

    def test_sync_availability(self):
        sched = RoundRobinScheduler(2)
        sched.sync_availability([5.0, 0.0])
        d = durations({1: 3.0, 2: 10.0})
        alloc = sched.place(0, d, now=0.0)
        assert alloc.node_ids == (0,)
        assert alloc.start == 5.0  # booked availability respected

    def test_zero_nodes_rejected(self):
        with pytest.raises(ScheduleError):
            RoundRobinScheduler(0)


class TestPolicyIntegration:
    @pytest.mark.parametrize(
        "policy", [SchedulingPolicy.RANDOM, SchedulingPolicy.ROUND_ROBIN]
    )
    def test_tasks_complete(self, policy, sim, small_resource, evaluator, rng, make_request):
        scheduler = LocalScheduler(
            sim, small_resource, evaluator, policy=policy, rng=rng
        )
        tasks = [
            scheduler.submit(make_request("jacobi", deadline_offset=500.0))
            for _ in range(6)
        ]
        sim.run()
        assert all(t.state is TaskState.COMPLETED for t in tasks)

    def test_random_requires_rng(self, sim, small_resource, evaluator):
        with pytest.raises(Exception):
            LocalScheduler(
                sim, small_resource, evaluator, policy=SchedulingPolicy.RANDOM
            )

    def test_is_static_flag(self):
        assert SchedulingPolicy.FIFO.is_static
        assert SchedulingPolicy.RANDOM.is_static
        assert SchedulingPolicy.ROUND_ROBIN.is_static
        assert not SchedulingPolicy.GA.is_static

    def test_fifo_dominates_naive_baselines_under_load(
        self, evaluator, specs
    ):
        """Performance-driven FIFO beats random placement on makespan."""
        import numpy as np

        from repro.pace import SGI_ORIGIN_2000, ResourceModel
        from repro.sim import Engine
        from repro.tasks import Environment, TaskRequest

        names = list(specs)

        def run(policy):
            sim = Engine()
            scheduler = LocalScheduler(
                sim,
                ResourceModel.homogeneous("S", SGI_ORIGIN_2000, 8),
                evaluator,
                policy=policy,
                rng=np.random.default_rng(4),
            )
            for i in range(25):
                spec = specs[names[i % len(names)]]
                scheduler.submit(
                    TaskRequest(
                        application=spec.model,
                        environment=Environment.TEST,
                        deadline=sim.now + 500.0,
                        submit_time=sim.now,
                    )
                )
                sim.run_until(sim.now + 1.0)
            sim.run()
            return max(
                t.completion_time for t in scheduler.executor.completed_tasks
            )

        assert run(SchedulingPolicy.FIFO) < run(SchedulingPolicy.RANDOM)
