"""Figure 8 — trends in average advance time ε across experiments 1→3.

Prints the per-agent ε series (the figure's curves: S1/S2 nearly flat,
S11/S12 improving massively, the grid total rising toward zero and beyond)
and benchmarks the series extraction from raw experiment results.
"""

from __future__ import annotations

from repro.experiments.tables import figure8_series
from repro.metrics.reporting import render_figure_series


def test_figure8_series(table3_results, capsys):
    series = figure8_series(table3_results)
    with capsys.disabled():
        print()
        print(
            render_figure_series(
                [r.metrics for r in table3_results],
                "epsilon",
                title="Figure 8: advance time of execution completion ε (s)",
            )
        )
    metrics = [r.metrics for r in table3_results]
    # ε is undefined (NaN) exactly where a platform ran no task: at small
    # workloads the slowest platform may receive none in some experiment.
    for name, values in series.items():
        for experiment, value in zip(metrics, values):
            row = experiment.total if name == "Total" else experiment.resource(name)
            assert (value != value) == (row.n_tasks == 0), (name, value)
    # The figure's headline: the slowest platforms improve monotonically
    # once load balancing is introduced.  A platform is compared only if
    # it ran tasks in experiments 1 and 3.
    for slow in ("S11", "S12"):
        if metrics[0].resource(slow).n_tasks and metrics[2].resource(slow).n_tasks:
            values = series[slow]
            assert values[2] >= values[0]
    assert series["Total"][2] >= series["Total"][0]


def test_bench_series_extraction(benchmark, table3_results):
    series = benchmark(figure8_series, table3_results)
    assert "Total" in series
