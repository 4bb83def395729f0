"""Tests for the two-part solution-string coding scheme."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CodingError
from repro.scheduling.coding import SolutionString
from tests.oracles import random_solution, with_task, without_task


def _mask(bits: str) -> np.ndarray:
    return np.array([b == "1" for b in bits])


@pytest.fixture
def solution():
    return SolutionString(
        [3, 5, 2],
        {2: _mask("1110"), 3: _mask("0101"), 5: _mask("1000")},
    )


class TestConstruction:
    def test_properties(self, solution):
        assert solution.ordering == (3, 5, 2)
        assert solution.n_tasks == 3
        assert solution.n_nodes == 4

    def test_mask_lookup(self, solution):
        assert solution.node_ids(2) == (0, 1, 2)
        assert solution.count(3) == 2

    def test_items_in_execution_order(self, solution):
        assert [tid for tid, _ in solution.items()] == [3, 5, 2]

    def test_duplicate_ordering_rejected(self):
        with pytest.raises(CodingError):
            SolutionString([1, 1], {1: _mask("1")})

    def test_mapping_mismatch_rejected(self):
        with pytest.raises(CodingError):
            SolutionString([1, 2], {1: _mask("1")})

    def test_empty_mask_rejected(self):
        with pytest.raises(CodingError):
            SolutionString([1], {1: _mask("000")})

    def test_ragged_masks_rejected(self):
        with pytest.raises(CodingError):
            SolutionString([1, 2], {1: _mask("10"), 2: _mask("100")})

    def test_masks_read_only(self, solution):
        with pytest.raises(ValueError):
            solution.mask(2)[0] = False

    def test_unknown_task_rejected(self, solution):
        with pytest.raises(CodingError):
            solution.mask(42)

    def test_empty_solution_allowed(self):
        empty = SolutionString([], {})
        assert empty.n_tasks == 0


class TestRebuilding:
    def test_with_ordering(self, solution):
        reordered = solution.with_ordering([2, 3, 5])
        assert reordered.ordering == (2, 3, 5)
        assert np.array_equal(reordered.mask(2), solution.mask(2))

    def test_with_mask(self, solution):
        updated = solution.with_mask(5, _mask("0011"))
        assert updated.node_ids(5) == (2, 3)
        assert solution.node_ids(5) == (0,)  # original untouched

    def test_with_task(self, solution):
        grown = with_task(solution, 9, _mask("0001"), position=1)
        assert grown.ordering == (3, 9, 5, 2)
        assert grown.count(9) == 1

    def test_with_task_duplicate_rejected(self, solution):
        with pytest.raises(CodingError):
            with_task(solution, 2, _mask("0001"))

    def test_without_task(self, solution):
        shrunk = without_task(solution, 5)
        assert shrunk.ordering == (3, 2)
        assert shrunk.n_tasks == 2

    def test_without_unknown_rejected(self, solution):
        with pytest.raises(CodingError):
            without_task(solution, 42)


class TestPresentation:
    def test_figure2_format(self):
        s = SolutionString(
            [3, 5],
            {3: _mask("11010"), 5: _mask("01010")},
        )
        assert s.to_figure2_string() == "3 5 | 11010 01010"

    def test_equality_and_hash(self, solution):
        clone = SolutionString(
            [3, 5, 2],
            {2: _mask("1110"), 3: _mask("0101"), 5: _mask("1000")},
        )
        assert solution == clone
        assert hash(solution) == hash(clone)
        assert solution != solution.with_ordering([5, 3, 2])


class TestRandomSolution:
    def test_legitimate(self, rng):
        s = random_solution([4, 7, 9], 6, rng)
        assert sorted(s.ordering) == [4, 7, 9]
        for tid in (4, 7, 9):
            assert s.count(tid) >= 1

    def test_zero_nodes_rejected(self, rng):
        with pytest.raises(CodingError):
            random_solution([1], 0, rng)

    def test_deterministic_given_rng(self):
        a = random_solution([1, 2, 3], 4, np.random.default_rng(5))
        b = random_solution([1, 2, 3], 4, np.random.default_rng(5))
        assert a == b
