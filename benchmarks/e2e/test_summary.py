"""The order statistics the benchmark reports."""

import statistics

import pytest

from summary import describe, median, percentile, quartiles, spread


def test_median_odd_and_even():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5


def test_quartiles_match_the_acceptance_rule():
    values = [1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0, 46.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, q3)
    assert spread(values) == pytest.approx((q3 - q1) / 13.5)


def test_single_value_is_its_own_quartiles():
    assert quartiles([5.0]) == (5.0, 5.0)
    assert spread([5.0]) == 0.0


def test_spread_of_zero_median():
    assert spread([0.0, 0.0, 0.0]) == 0.0
    assert spread([-1.0, 0.0, 1.0]) == float("inf")


def test_percentile_interpolates_linearly():
    values = list(range(101))
    assert percentile(values, 95) == 95.0
    assert percentile([10.0, 20.0], 50) == 15.0
    assert percentile([7.0], 95) == 7.0
    assert percentile([3.0, 1.0, 2.0], 0) == 1.0
    assert percentile([3.0, 1.0, 2.0], 100) == 3.0


def test_describe_counts_samples():
    assert describe([1.0, 2.0, 3.0, 4.0, 5.0]) == {
        "median": 3.0, "q1": 1.5, "q3": 4.5, "n": 5,
    }


@pytest.mark.parametrize("fn", [median, quartiles, lambda v: percentile(v, 50)])
def test_empty_samples_are_rejected(fn):
    with pytest.raises(ValueError):
        fn([])


def test_percentile_range_is_checked():
    with pytest.raises(ValueError):
        percentile([1.0], 101)
