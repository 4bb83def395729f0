"""Verdicts of the comparison tool on hand-built result documents."""

import json

import pytest

import compare
from compare import compare as compare_docs
from compare import load_bounds, simulated_verdict, verdict


def metric(samples):
    ordered = sorted(samples)
    return {"median": ordered[len(ordered) // 2], "samples": samples}


@pytest.mark.parametrize(
    "base, changed, expected",
    [
        # Every changed sample beats every base sample.
        ([10.0, 10.1, 10.2, 10.3, 10.4], [8.0, 8.1, 8.2, 8.3, 8.4], "better"),
        # Median 20 % worse with a tight spread: past a 10 % bound.
        ([10.0, 10.1, 10.2, 10.3, 10.4], [12.0, 12.2, 12.3, 12.4, 12.5], "worse"),
        # 3 % worse, tight spread: within the bound.
        ([10.0, 10.1, 10.2, 10.3, 10.4], [10.3, 10.4, 10.5, 10.6, 10.7], "ok"),
        # A spread wider than the bound cannot show a regression or its absence.
        ([5.0, 8.0, 10.0, 13.0, 16.0], [6.0, 9.0, 11.0, 14.0, 15.0], "unresolved"),
        ([5.0, 8.0, 10.0, 13.0, 16.0], [13.0, 15.0, 17.0, 20.0, 25.0], "unresolved"),
    ],
)
def test_verdicts_for_a_lower_is_better_metric(base, changed, expected):
    assert verdict(metric(base), metric(changed), 0.10, "lower")[0] == expected


def paired(values):
    ordered = sorted(values.values())
    return {"median": ordered[len(ordered) // 2], "samples": ordered, "by_input": values}


@pytest.mark.parametrize(
    "factors, expected",
    [
        ((0.9, 0.92, 0.95, 0.9), "better"),
        ((1.05, 1.04, 1.06, 1.05), "ok"),
        ((1.3, 1.28, 1.31, 1.3), "worse"),
        ((0.8, 1.3, 0.9, 1.2), "unresolved"),
    ],
)
def test_shared_inputs_are_compared_pairwise(factors, expected):
    # The inputs' own work differs fourfold; the ratios cancel it.
    base = {"a": 1.0, "b": 2.0, "c": 4.0, "d": 3.0}
    changed = {k: v * f for (k, v), f in zip(base.items(), factors)}
    assert verdict(paired(base), paired(changed), 0.1, "lower")[0] == expected


def test_direction_follows_better():
    base, changed = metric([10.0, 10.1, 10.2]), metric([12.0, 12.1, 12.2])
    word, worsening = verdict(base, changed, 0.1, "higher")
    assert word == "better"
    assert worsening == pytest.approx(-2.0 / 10.1)
    word, worsening = verdict(base, changed, 0.1, "lower")
    assert word == "worse"
    assert worsening == pytest.approx(2.0 / 10.1)


def sim(values):
    return {"median": sorted(values.values())[len(values) // 2], "by_input": values}


def test_simulated_metrics_compare_input_by_input():
    base = {"epsilon_s": sim({"1": 30.0, "2": 40.0, "3": 50.0})}
    assert simulated_verdict("casestudy", base, base) == ("identical", [])
    nudged = {"epsilon_s": sim({"1": 30.0, "2": 39.0, "3": 50.0})}
    assert simulated_verdict("casestudy", base, nudged) == ("within", [])
    tol = compare.SIMULATED_TOLERANCE["casestudy"]["epsilon_s"]
    lower = {"epsilon_s": sim({"1": 30.0, "2": 40.0 - 2 * tol, "3": 50.0})}
    word, worse = simulated_verdict("casestudy", base, lower)
    assert word == "worse" and worse[0].startswith("epsilon_s")
    # Higher epsilon is better: a gain is never a regression.
    higher = {"epsilon_s": sim({"1": 30.0, "2": 40.0 + 2 * tol, "3": 50.0})}
    assert simulated_verdict("casestudy", base, higher) == ("within", [])
    # No tolerance where the workload runs no GA.
    assert simulated_verdict("grid1000", base, nudged)[0] == "worse"


def doc(seed, run_s, correct=True):
    return {
        "seed": seed,
        "workloads": {
            "grid1000": {
                "correct": correct,
                "end_to_end": {"run_s": metric(run_s)},
                "simulated": {"epsilon_s": sim({str(seed): 30.0})},
            }
        },
    }


def test_compare_rows_and_exit_signal():
    bounds = {"run_s": (0.1, "lower"), "setup_s": (0.25, "lower")}
    rows, regressed = compare_docs(doc(1, [2.0, 2.01, 2.02]), doc(1, [2.0, 2.01, 2.03]), bounds)
    assert not regressed
    assert rows[1].startswith("grid1000") and "ok (+0.0%)" in rows[1]
    assert "identical" in rows[1] and rows[1].count("-") >= 1
    rows, regressed = compare_docs(doc(1, [2.0, 2.01, 2.02]), doc(1, [3.0, 3.01, 3.02]), bounds)
    assert regressed and "worse" in rows[1]
    rows, regressed = compare_docs(doc(1, [2.0, 2.01, 2.02]), doc(2, [2.0, 2.01, 2.02]), bounds)
    assert not regressed and "not compared" in rows[1]
    _, regressed = compare_docs(doc(1, [2.0] * 3), doc(1, [2.0] * 3, correct=False), bounds)
    assert regressed


def test_bounds_come_from_the_benchmark_file(tmp_path):
    path = tmp_path / "BENCHMARK.json"
    path.write_text(json.dumps({"end_to_end": [
        {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.2},
    ]}))
    assert load_bounds(path) == {"run_s": (0.2, "lower")}
