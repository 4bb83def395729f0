"""Tests for selection, crossover, and mutation (object-level reference)."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.scheduling.coding import SolutionString
from tests.oracles import (
    crossover,
    mutate,
    order_splice,
    random_solution,
    stochastic_remainder_selection,
)


class TestStochasticRemainderSelection:
    def test_count_respected(self, rng):
        picks = stochastic_remainder_selection([1.0, 0.5, 0.0], 9, rng)
        assert len(picks) == 9
        assert all(0 <= p < 3 for p in picks)

    def test_guaranteed_copies(self, rng):
        # Individual 0 has fitness 3 in a population of mean 1: its
        # expected share of 4 slots is 3 — the floor guarantees >= 3... with
        # count == size; use exact integer expectations.
        picks = stochastic_remainder_selection([3.0, 1.0, 0.0, 0.0], 4, rng)
        counts = Counter(picks)
        assert counts[0] >= 3
        assert counts[1] >= 1

    def test_zero_fitness_uniform(self, rng):
        picks = stochastic_remainder_selection([0.0, 0.0], 10, rng)
        assert set(picks) <= {0, 1}

    def test_empty_rejected(self, rng):
        with pytest.raises(ValidationError):
            stochastic_remainder_selection([], 1, rng)

    def test_negative_fitness_rejected(self, rng):
        with pytest.raises(ValidationError):
            stochastic_remainder_selection([-1.0], 1, rng)

    def test_zero_count_rejected(self, rng):
        with pytest.raises(ValidationError):
            stochastic_remainder_selection([1.0], 0, rng)

    def test_selection_pressure(self, rng):
        # Over many draws, the fitter individual is selected more.
        picks = stochastic_remainder_selection([0.9, 0.1], 1000, rng)
        counts = Counter(picks)
        assert counts[0] > counts[1] * 3


class TestOrderSplice:
    def test_paper_semantics(self):
        assert order_splice([3, 5, 2, 1], [1, 2, 5, 3], 2) == (3, 5, 1, 2)

    def test_cut_zero_copies_second(self):
        assert order_splice([1, 2, 3], [3, 1, 2], 0) == (3, 1, 2)

    def test_cut_full_copies_first(self):
        assert order_splice([1, 2, 3], [3, 1, 2], 3) == (1, 2, 3)

    def test_always_a_permutation(self, rng):
        for _ in range(50):
            a = [int(x) for x in rng.permutation(8)]
            b = [int(x) for x in rng.permutation(8)]
            cut = int(rng.integers(0, 9))
            child = order_splice(a, b, cut)
            assert sorted(child) == list(range(8))

    def test_disjoint_sets_rejected(self):
        with pytest.raises(ValidationError):
            order_splice([1, 2], [3, 4], 1)

    def test_cut_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            order_splice([1], [1], 5)


class TestCrossover:
    def test_children_are_legitimate(self, rng):
        pa = random_solution([1, 2, 3, 4], 5, rng)
        pb = random_solution([1, 2, 3, 4], 5, rng)
        c1, c2 = crossover(pa, pb, rng)
        for child in (c1, c2):
            assert sorted(child.ordering) == [1, 2, 3, 4]
            for tid in (1, 2, 3, 4):
                assert child.count(tid) >= 1

    def test_mismatched_parents_rejected(self, rng):
        pa = random_solution([1, 2], 3, rng)
        pb = random_solution([1, 3], 3, rng)
        with pytest.raises(ValidationError):
            crossover(pa, pb, rng)

    def test_empty_parents_pass_through(self, rng):
        empty = SolutionString([], {})
        c1, c2 = crossover(empty, empty, rng)
        assert c1.n_tasks == 0 and c2.n_tasks == 0

    def test_mapping_travels_with_task(self, rng):
        """The reordering step preserves per-task node maps across parents.

        With the crossover point at an extreme, one child's maps must come
        entirely from one parent, keyed by task — regardless of order.
        """
        pa = random_solution([1, 2, 3], 4, np.random.default_rng(1))
        pb = random_solution([1, 2, 3], 4, np.random.default_rng(2))
        hits = 0
        for seed in range(40):
            r = np.random.default_rng(seed)
            c1, _ = crossover(pa, pb, r)
            if all(
                np.array_equal(c1.mask(t), pa.mask(t)) for t in (1, 2, 3)
            ) or all(np.array_equal(c1.mask(t), pb.mask(t)) for t in (1, 2, 3)):
                hits += 1
        assert hits > 0  # extreme cut points occur


class TestMutate:
    def test_legitimacy_preserved(self, rng):
        sol = random_solution(list(range(6)), 8, rng)
        for _ in range(20):
            sol = mutate(sol, rng, swap_probability=0.9, bitflip_probability=0.2)
            assert sorted(sol.ordering) == list(range(6))
            for tid in range(6):
                assert sol.count(tid) >= 1

    def test_zero_rates_identity(self, rng):
        sol = random_solution([1, 2], 4, rng)
        same = mutate(sol, rng, swap_probability=0.0, bitflip_probability=0.0)
        assert same == sol

    def test_swap_changes_order_only(self):
        sol = random_solution([1, 2, 3], 4, np.random.default_rng(0))
        mutated = mutate(
            sol,
            np.random.default_rng(1),
            swap_probability=1.0,
            bitflip_probability=0.0,
        )
        assert sorted(mutated.ordering) == sorted(sol.ordering)
        assert mutated.ordering != sol.ordering
        for tid in (1, 2, 3):
            assert np.array_equal(mutated.mask(tid), sol.mask(tid))

    def test_bad_probability_rejected(self, rng):
        sol = random_solution([1], 2, rng)
        with pytest.raises(ValidationError):
            mutate(sol, rng, swap_probability=1.5)

    def test_empty_solution_identity(self, rng):
        empty = SolutionString([], {})
        assert mutate(empty, rng) is empty
