"""Property tests: the batched GA operators agree with the references.

Two layers of agreement are asserted:

* each pure batched operator (:mod:`repro.scheduling.batched`) equals the
  corresponding reference built from ``tests/oracles.py`` /
  ``np.insert``, row for row, given the same random choices;
* swap-remove (``remove_task``) preserves the population abstractly: every
  ordering remains a permutation of the surviving rows and every task
  keeps the mask it had before removal.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduling.batched import (
    batched_insert,
    batched_mask_crossover,
    batched_order_splice,
    crossover_thresholds,
)
from repro.scheduling.ga import GAConfig, GAScheduler
from tests.oracles import (
    order_splice,
    reference_batched_mask_crossover,
    reference_batched_splice,
)


@st.composite
def splice_batches(draw):
    """A batch of ordering pairs with per-pair cuts."""
    batch = draw(st.integers(1, 5))
    m = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    orders_a = np.stack([rng.permutation(m) for _ in range(batch)])
    orders_b = np.stack([rng.permutation(m) for _ in range(batch)])
    cuts = rng.integers(0, m + 1, size=batch)
    return orders_a, orders_b, cuts


@st.composite
def crossover_batches(draw):
    """Splice batches plus row-keyed masks and per-pair crossover points."""
    orders_a, orders_b, cuts = draw(splice_batches())
    batch, m = orders_a.shape
    n = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    masks_a = rng.random((batch, m, n)) < 0.5
    masks_b = rng.random((batch, m, n)) < 0.5
    points = rng.integers(0, m * n + 1, size=batch)
    return orders_a, orders_b, cuts, masks_a, masks_b, points


class TestBatchedOrderSplice:
    @given(data=splice_batches())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_rowwise(self, data):
        orders_a, orders_b, cuts = data
        children = batched_order_splice(orders_a, orders_b, cuts)
        for i in range(orders_a.shape[0]):
            expected = order_splice(
                tuple(orders_a[i]), tuple(orders_b[i]), int(cuts[i])
            )
            assert tuple(children[i]) == expected

    @given(data=splice_batches())
    @settings(max_examples=100, deadline=None)
    def test_children_are_permutations(self, data):
        orders_a, orders_b, cuts = data
        m = orders_a.shape[1]
        children = batched_order_splice(orders_a, orders_b, cuts)
        for row in children:
            assert sorted(row) == list(range(m))

    @given(data=splice_batches())
    @settings(max_examples=100, deadline=None)
    def test_out_matches_the_membership_table_splice(self, data):
        """Written into ``out``, byte-equal to the scattered-table form."""
        orders_a, orders_b, cuts = data
        out = np.full_like(orders_a, -1)
        returned = batched_order_splice(orders_a, orders_b, cuts, out=out)
        assert returned is out
        expected = reference_batched_splice(orders_a, orders_b, cuts)
        assert out.dtype == expected.dtype
        assert out.tobytes() == expected.tobytes()

    @given(data=splice_batches())
    @settings(max_examples=50, deadline=None)
    def test_full_cut_keeps_the_head(self, data):
        """Cut ``m`` is how a non-crossing pair passes its head through."""
        orders_a, orders_b, _ = data
        batch, m = orders_a.shape
        children = batched_order_splice(orders_a, orders_b, np.full(batch, m))
        assert np.array_equal(children, orders_a)


class TestBatchedMaskCrossover:
    @staticmethod
    def reference_cross_maps(child_order, first, second, point):
        """The per-pair gather/cross/scatter the batched kernel replaces."""
        m, n = first.shape
        flat_first = first[child_order].reshape(-1)
        flat_second = second[child_order].reshape(-1)
        child_flat = np.concatenate([flat_first[:point], flat_second[point:]])
        child_masks = np.empty_like(first)
        child_masks[child_order] = child_flat.reshape(m, n)
        return child_masks

    @given(data=crossover_batches())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_rowwise(self, data):
        orders_a, orders_b, cuts, masks_a, masks_b, points = data
        n = masks_a.shape[2]
        child_orders = batched_order_splice(orders_a, orders_b, cuts)
        children = batched_mask_crossover(
            child_orders, masks_a, masks_b, crossover_thresholds(points, n)
        )
        for i in range(orders_a.shape[0]):
            expected = self.reference_cross_maps(
                child_orders[i], masks_a[i], masks_b[i], int(points[i])
            )
            assert np.array_equal(children[i], expected)

    @given(data=crossover_batches())
    @settings(max_examples=100, deadline=None)
    def test_extreme_points_copy_one_parent(self, data):
        orders_a, orders_b, cuts, masks_a, masks_b, _ = data
        batch, m = orders_a.shape
        n = masks_a.shape[2]
        child_orders = batched_order_splice(orders_a, orders_b, cuts)
        all_first = batched_mask_crossover(
            child_orders, masks_a, masks_b,
            crossover_thresholds(np.full(batch, m * n), n),
        )
        all_second = batched_mask_crossover(
            child_orders, masks_a, masks_b,
            crossover_thresholds(np.zeros(batch, dtype=int), n),
        )
        assert np.array_equal(all_first, masks_a)
        assert np.array_equal(all_second, masks_b)

    @given(data=crossover_batches())
    @settings(max_examples=100, deadline=None)
    def test_thresholds_match_flat_index_cut(self, data):
        """``pos < thresholds[j]`` ⟺ ``pos·n + j < point``, for every pos."""
        _, _, _, masks_a, _, points = data
        m, n = masks_a.shape[1:]
        thresholds = crossover_thresholds(points, n)
        assert thresholds.dtype == np.int32
        pos = np.arange(m)[None, :, None]
        flat = pos * n + np.arange(n)[None, None, :]
        assert np.array_equal(
            pos < thresholds[:, None, :], flat < points[:, None, None]
        )

    @given(data=crossover_batches())
    @settings(max_examples=100, deadline=None)
    def test_in_place_and_out_match_the_points_form(self, data):
        """Into a fresh ``out`` or over ``masks_second`` itself, byte-equal
        to the form that takes the flat points."""
        orders_a, orders_b, cuts, masks_a, masks_b, points = data
        n = masks_a.shape[2]
        child_orders = batched_order_splice(orders_a, orders_b, cuts)
        expected = reference_batched_mask_crossover(
            child_orders, masks_a, masks_b, points
        )
        thresholds = crossover_thresholds(points, n)
        out = np.zeros_like(masks_b)
        assert batched_mask_crossover(
            child_orders, masks_a, masks_b, thresholds, out=out
        ) is out
        assert out.tobytes() == expected.tobytes()
        in_place = masks_b.copy()
        batched_mask_crossover(
            child_orders, masks_a, in_place, thresholds, out=in_place
        )
        assert in_place.tobytes() == expected.tobytes()


class TestBatchedInsert:
    @given(
        batch=st.integers(1, 6),
        m=st.integers(0, 8),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_np_insert_rowwise(self, batch, m, seed):
        rng = np.random.default_rng(seed)
        orders = np.stack([rng.permutation(m) for _ in range(batch)])
        positions = rng.integers(0, m + 1, size=batch)
        children = batched_insert(orders, positions, m)
        for i in range(batch):
            expected = np.insert(orders[i], int(positions[i]), m)
            assert np.array_equal(children[i], expected)


def _duration(task_id: int, count: int) -> float:
    return 10.0 / count + task_id % 3


class TestSwapRemoveInvariants:
    @given(
        seed=st.integers(0, 2**31),
        remove_at=st.integers(0, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_population_survives_removal_abstractly(self, seed, remove_at):
        ga = GAScheduler(
            4,
            _duration,
            np.random.default_rng(seed),
            GAConfig(population_size=10),
        )
        for tid in range(5):
            ga.add_task(tid, deadline=50.0 + 10.0 * tid)
        # Abstract view before removal: per-individual task sequences and
        # per-task masks, keyed by task id (row numbering is internal).
        before_orders = [
            [ga.task_ids[row] for row in individual] for individual in ga._order
        ]
        before_masks = [
            {tid: ga._masks[p, ga._row_of[tid]].copy() for tid in ga.task_ids}
            for p in range(10)
        ]
        ga.remove_task(remove_at)
        survivors = set(range(5)) - {remove_at}
        assert set(ga.task_ids) == survivors
        for p in range(10):
            sequence = [ga.task_ids[row] for row in ga._order[p]]
            assert sequence == [t for t in before_orders[p] if t != remove_at]
            for tid in survivors:
                assert np.array_equal(
                    ga._masks[p, ga._row_of[tid]], before_masks[p][tid]
                )
        # Internal packing: rows are dense 0..m-1 and consistently keyed.
        assert sorted(ga._row_of.values()) == list(range(4))
        for tid, row in ga._row_of.items():
            assert ga.task_ids[row] == tid
