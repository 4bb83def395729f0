"""Property-based tests for the genetic operators and fitness scaling."""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.scheduling.fitness import scale_fitness
from tests.oracles import crossover, mutate, order_splice, random_solution


@st.composite
def parent_pairs(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    seed_a = draw(st.integers(0, 2**31))
    seed_b = draw(st.integers(0, 2**31))
    ids = list(range(m))
    pa = random_solution(ids, n, np.random.default_rng(seed_a))
    pb = random_solution(ids, n, np.random.default_rng(seed_b))
    return pa, pb


class TestCrossoverProperties:
    @given(parents=parent_pairs(), seed=st.integers(0, 2**31))
    @settings(max_examples=150, deadline=None)
    def test_children_always_legitimate(self, parents, seed):
        pa, pb = parents
        rng = np.random.default_rng(seed)
        for child in crossover(pa, pb, rng):
            assert sorted(child.ordering) == sorted(pa.ordering)
            for tid in child.ordering:
                assert child.count(tid) >= 1
                assert child.mask(tid).size == pa.n_nodes


class TestMutationProperties:
    @given(
        parents=parent_pairs(),
        seed=st.integers(0, 2**31),
        swap=st.floats(0.0, 1.0),
        flip=st.floats(0.0, 0.5),
    )
    @settings(max_examples=150, deadline=None)
    def test_mutants_always_legitimate(self, parents, seed, swap, flip):
        sol, _ = parents
        mutant = mutate(
            sol,
            np.random.default_rng(seed),
            swap_probability=swap,
            bitflip_probability=flip,
        )
        assert sorted(mutant.ordering) == sorted(sol.ordering)
        for tid in mutant.ordering:
            assert mutant.count(tid) >= 1


class TestSpliceProperties:
    @given(
        m=st.integers(1, 8),
        seed_a=st.integers(0, 2**31),
        seed_b=st.integers(0, 2**31),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_always_permutation_with_prefix_preserved(self, m, seed_a, seed_b, data):
        a = [int(x) for x in np.random.default_rng(seed_a).permutation(m)]
        b = [int(x) for x in np.random.default_rng(seed_b).permutation(m)]
        cut = data.draw(st.integers(0, m))
        child = order_splice(a, b, cut)
        assert sorted(child) == list(range(m))
        assert list(child[:cut]) == a[:cut]
        # The tail preserves b's relative order.
        tail = [t for t in child[cut:]]
        b_filtered = [t for t in b if t in set(tail)]
        assert tail == b_filtered


class TestFitnessProperties:
    @given(
        costs=st.lists(
            st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_range_and_extremes(self, costs):
        fitness = scale_fitness(costs)
        assert np.all(fitness >= 0.0) and np.all(fitness <= 1.0)
        if max(costs) != min(costs):
            assert fitness[int(np.argmin(costs))] == 1.0
            assert fitness[int(np.argmax(costs))] == 0.0

    @given(
        costs=st.lists(st.floats(1.0, 100.0), min_size=2, max_size=20),
        scale=st.floats(0.1, 100.0),
        shift=st.floats(-50.0, 50.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_affine_invariance(self, costs, scale, shift):
        # Near-identical costs cancel catastrophically under the shift,
        # flipping the degenerate all-equal branch; require a real spread.
        assume(max(costs) - min(costs) > 1e-6)
        base = scale_fitness(costs)
        transformed = scale_fitness([c * scale + shift for c in costs])
        assert np.allclose(base, transformed, atol=1e-6)
