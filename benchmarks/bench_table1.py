"""Table 1 — predicted execution times of the seven applications.

Regenerates the published SGIOrigin2000 predictions from our PACE stand-in,
asserts exact agreement, prints the table in the paper's layout, and
benchmarks the evaluation engine cold (uncached) and warm (cached) — the
cache being the §2.2 mechanism the GA depends on.
"""

from __future__ import annotations

from repro.experiments.tables import table1_rows, validate_table1
from repro.pace.evaluation import EvaluationEngine
from repro.pace.hardware import SGI_ORIGIN_2000
from repro.pace.workloads import paper_applications
from repro.utils.tables import render_table


def test_table1_values_match_paper(capsys):
    """The evaluation engine reproduces Table 1 exactly; print it."""
    validate_table1()
    headers = ["application", "bounds"] + [str(k) for k in range(1, 17)]
    rows = []
    for name, bounds, times in table1_rows():
        rows.append([name, f"[{bounds[0]:.0f},{bounds[1]:.0f}]"] + [f"{t:.0f}" for t in times])
    with capsys.disabled():
        print()
        print(render_table(headers, rows, title="Table 1: predicted execution times (s), SGIOrigin2000"))


def test_bench_evaluation_cold(benchmark):
    """Uncached PACE evaluations: 7 applications × 16 processor counts."""
    models = paper_applications()

    def evaluate_all():
        engine = EvaluationEngine()  # fresh cache: every call is a miss
        total = 0.0
        for model in models.values():
            for k in range(1, 17):
                total += engine.evaluate_count(model, k, SGI_ORIGIN_2000)
        return total

    result = benchmark(evaluate_all)
    assert result > 0


def test_bench_evaluation_warm(benchmark):
    """Cached PACE evaluations — the §2.2 fast path the GA hits."""
    models = paper_applications()
    engine = EvaluationEngine()
    for model in models.values():  # pre-warm
        for k in range(1, 17):
            engine.evaluate_count(model, k, SGI_ORIGIN_2000)
    engine.cache.stats.reset()

    def evaluate_all():
        total = 0.0
        for model in models.values():
            for k in range(1, 17):
                total += engine.evaluate_count(model, k, SGI_ORIGIN_2000)
        return total

    benchmark(evaluate_all)
    # Every timed call hits, however often the benchmark repeats it.
    assert engine.cache.stats.misses == 0
    assert engine.cache.stats.hits > 0
