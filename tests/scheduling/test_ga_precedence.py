"""Tests for the GA kernel's workflow constraints: preds, floors, priorities.

The keyword extensions of :meth:`GAScheduler.add_task` must (a) keep every
individual's ordering topologically valid through splicing, crossover, and
mutation — the whole-population repair rebuilding exactly what a
per-individual loop would — (b) push constrained costs up relative to the
unconstrained problem (serialisation is real work), and (c) round-trip
through the snapshot codec — with the workflow keys absent entirely when
unused, so independent-task snapshots stay byte-identical to the seed
format.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduling.ga import GAConfig, GAScheduler
from tests.oracles import reference_repair_orders


def const_duration(seconds: float):
    return lambda tid, k: seconds / k


@pytest.fixture
def rng():
    return np.random.default_rng(2003)


def _orderings_respect(ga, pairs):
    for sol in ga.population:
        order = list(sol.ordering)
        for pred, succ in pairs:
            assert order.index(pred) < order.index(succ), (
                f"{pred} after {succ} in {order}"
            )


class TestOrderingRepair:
    def test_chain_valid_at_insertion(self, rng):
        ga = GAScheduler(4, const_duration(8.0), rng, GAConfig(population_size=30))
        ga.add_task(0, 100.0)
        ga.add_task(1, 100.0, predecessors=[0])
        ga.add_task(2, 100.0, predecessors=[1])
        _orderings_respect(ga, [(0, 1), (1, 2)])

    def test_chain_valid_through_evolution(self, rng):
        ga = GAScheduler(4, const_duration(8.0), rng, GAConfig(population_size=30))
        ga.add_task(0, 100.0)
        ga.add_task(1, 100.0, predecessors=[0])
        ga.add_task(2, 100.0, predecessors=[0])
        ga.add_task(3, 100.0, predecessors=[1, 2])
        for _ in range(5):
            ga.evolve(3, [0.0] * 4, 0.0)
            _orderings_respect(ga, [(0, 1), (0, 2), (1, 3), (2, 3)])

    def test_constraints_survive_unrelated_removal(self, rng):
        ga = GAScheduler(4, const_duration(8.0), rng, GAConfig(population_size=30))
        ga.add_task(7, 100.0)
        ga.add_task(8, 100.0, predecessors=[7])
        ga.add_task(9, 100.0)
        ga.remove_task(9)  # swap-remove must not corrupt the pred mapping
        ga.evolve(2, [0.0] * 4, 0.0)
        _orderings_respect(ga, [(7, 8)])


def _repair_loop(order, pred_mat):
    """Per-individual stable topological repair (the array pass's oracle).

    Each individual's position table is built on its own; individuals
    already respecting every constraint are skipped, violators are
    rebuilt by a stable Kahn pass.
    """
    m = order.shape[1]
    pos = np.empty(m + 1, dtype=np.int64)
    for p in range(order.shape[0]):
        seq = order[p]
        pos[m] = -1
        pos[seq] = np.arange(m)
        if np.all(pos[:m] > pos[pred_mat].max(axis=1)):
            continue
        placed = np.zeros(m + 1, dtype=bool)
        placed[m] = True
        out = []
        pending = [int(r) for r in seq]
        while pending:
            for i, r in enumerate(pending):
                if placed[pred_mat[r]].all():
                    out.append(r)
                    placed[r] = True
                    del pending[i]
                    break
        order[p] = out


class TestRepairMatchesLoop:
    @given(
        seed=st.integers(0, 2**31),
        m=st.integers(2, 9),
        pop=st.integers(1, 24),
        density=st.floats(0.05, 0.9),
    )
    @settings(max_examples=150, deadline=None)
    def test_array_pass_equals_per_individual_loop(self, seed, m, pop, density):
        rng = np.random.default_rng(seed)
        ga = GAScheduler(4, const_duration(8.0), rng, GAConfig(population_size=4))
        # Task ids are a shuffled range and parents always come earlier in
        # a random topological order, so the graph is acyclic but rows,
        # ids and precedence disagree.
        ids = [int(t) for t in rng.permutation(100)[:m]]
        for k, tid in enumerate(ids):
            parents = [ids[j] for j in range(k) if rng.random() < density]
            ga.add_task(tid, 100.0, predecessors=parents)
        ga.remove_task(ids[0])  # swap-remove re-keys the rows
        pred_mat, _ = ga._constraint_arrays()
        rows = ga.n_tasks
        order = np.stack([rng.permutation(rows) for _ in range(pop)])
        got = order.copy()
        ga._repair_orders(got)
        if pred_mat is None:
            assert np.array_equal(got, order)
            return
        expected = order.copy()
        _repair_loop(expected, pred_mat)
        assert np.array_equal(got, expected)


class TestRepairMatchesOracle:
    @given(
        seed=st.integers(0, 2**31),
        m=st.integers(1, 14),
        pop=st.integers(1, 48),
        density=st.floats(0.0, 1.0),
        dropped=st.integers(0, 3),
    )
    @settings(max_examples=200, deadline=None)
    def test_repair_equals_numpy_kahn_row_for_row(
        self, seed, m, pop, density, dropped
    ):
        """The plain-Python Kahn pass rebuilds every row as the oracle does.

        Random DAG constraints over shuffled task ids (rows with fewer
        predecessors are padded with the sentinel row), a few tasks
        swap-removed so rows and ids disagree, and random orderings.
        """
        rng = np.random.default_rng(seed)
        ga = GAScheduler(4, const_duration(8.0), rng, GAConfig(population_size=4))
        ids = [int(t) for t in rng.permutation(200)[: m + dropped]]
        for k, tid in enumerate(ids):
            parents = [ids[j] for j in range(k) if rng.random() < density]
            ga.add_task(tid, 100.0, predecessors=parents)
        for tid in rng.choice(ids, size=dropped, replace=False):
            ga.remove_task(int(tid))
        pred_mat, _ = ga._constraint_arrays()
        order = np.stack([rng.permutation(ga.n_tasks) for _ in range(pop)])
        got, expected = order.copy(), order.copy()
        ga._repair_orders(got)
        reference_repair_orders(expected, pred_mat)
        for row, (g, e) in enumerate(zip(got.tolist(), expected.tolist())):
            assert g == e, f"row {row}: {g} != {e}"


class TestConstraintCosts:
    def test_precedence_serialises_the_work(self, rng):
        """A forced chain costs more than the parallelisable problem."""
        flat = lambda tid, k: 8.0  # no speedup: parallelism is across tasks
        free = GAScheduler(4, flat, rng, GAConfig(population_size=30))
        free.add_task(0, 1000.0)
        free.add_task(1, 1000.0)
        chained = GAScheduler(
            4, flat, np.random.default_rng(2003),
            GAConfig(population_size=30),
        )
        chained.add_task(0, 1000.0)
        chained.add_task(1, 1000.0, predecessors=[0])
        free_cost = free.evolve(20, [0.0] * 4, 0.0)
        chained_cost = chained.evolve(20, [0.0] * 4, 0.0)
        assert chained_cost > free_cost

    def test_floor_defers_the_start(self, rng):
        ga = GAScheduler(2, const_duration(4.0), rng, GAConfig(population_size=20))
        ga.add_task(0, 1000.0, floor=50.0)
        baseline = GAScheduler(
            2, const_duration(4.0), np.random.default_rng(2003),
            GAConfig(population_size=20),
        )
        baseline.add_task(0, 1000.0)
        # makespan measured from ref time 0 includes the staging delay
        assert ga.evolve(5, [0.0] * 2, 0.0) > baseline.evolve(5, [0.0] * 2, 0.0)

    def test_set_floor_is_monotonic(self, rng):
        ga = GAScheduler(2, const_duration(4.0), rng, GAConfig(population_size=20))
        ga.add_task(0, 1000.0, floor=50.0)
        ga.set_floor(0, 10.0)  # lowering is ignored
        assert ga.snapshot_state()["floors"] == [[0, 50.0]]
        ga.set_floor(0, 75.0)
        assert ga.snapshot_state()["floors"] == [[0, 75.0]]


class TestSnapshotKeys:
    def test_workflow_keys_absent_when_unused(self, rng):
        ga = GAScheduler(4, const_duration(8.0), rng, GAConfig(population_size=20))
        ga.add_task(0, 100.0)
        state = ga.snapshot_state()
        assert "priorities" not in state
        assert "floors" not in state
        assert "preds" not in state

    def test_workflow_state_round_trips(self, rng):
        ga = GAScheduler(4, const_duration(8.0), rng, GAConfig(population_size=20))
        ga.add_task(0, 100.0, priority=9.0)
        ga.add_task(1, 100.0, priority=4.0, floor=12.0, predecessors=[0])
        state = ga.snapshot_state()
        assert state["priorities"] == [9.0, 4.0]
        assert state["floors"] == [[1, 12.0]]
        assert state["preds"] == [[1, [0]]]

        restored = GAScheduler(
            4, const_duration(8.0), np.random.default_rng(2003),
            GAConfig(population_size=20),
        )
        restored.restore_state(state)
        assert restored.snapshot_state() == state
        restored.evolve(2, [0.0] * 4, 0.0)
        _orderings_respect(restored, [(0, 1)])
