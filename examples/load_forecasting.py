#!/usr/bin/env python3
"""NWS-style load forecasting — the paper's future-work extension.

The paper's PACE resource models are static; its future work proposes
integrating NWS for dynamic resource information.  This example feeds a
synthetic host-load trace (quiet nights, busy days, occasional spikes) to
the adaptive forecaster and shows

1. which member of the predictor family wins in each regime, and
2. how much accuracy the forecast adds to execution-time estimates.

Run:  python examples/load_forecasting.py
"""

from __future__ import annotations

import numpy as np

from repro.pace.forecast import AdaptiveForecaster, LoadTracker
from repro.utils.tables import render_table


def synth_trace(rng: np.random.Generator, hours: int = 48) -> np.ndarray:
    """Per-minute load: diurnal baseline + AR noise + rare spikes."""
    minutes = hours * 60
    t = np.arange(minutes)
    diurnal = 0.6 + 0.5 * np.sin(2 * np.pi * (t / 60.0 - 8) / 24.0)
    noise = np.zeros(minutes)
    level = 0.0
    for i in range(minutes):
        level = 0.85 * level + float(rng.normal(0, 0.05))
        noise[i] = level
    spikes = (rng.random(minutes) < 0.01) * rng.uniform(1.0, 3.0, minutes)
    return np.clip(diurnal + noise + spikes, 0.0, None)


def main() -> None:
    rng = np.random.default_rng(42)
    trace = synth_trace(rng)
    print(f"Synthetic host-load trace: {trace.size} samples, "
          f"mean {trace.mean():.2f}, max {trace.max():.2f}")
    print()

    # ------------------------------------------------ forecaster leaderboard
    forecaster = AdaptiveForecaster()
    winners: dict[str, int] = {}
    for value in trace:
        forecaster.update(float(value))
        if forecaster.observations > 10:
            winners[forecaster.best_name()] = winners.get(forecaster.best_name(), 0) + 1
    rows = sorted(
        ([name, count, f"{err:.4f}"] for name, count in winners.items()
         for err in [forecaster.errors()[name]]),
        key=lambda r: -r[1],
    )
    print(render_table(
        ["predictor", "steps trusted", "final error"],
        rows,
        title="Adaptive forecaster: which family member wins",
    ))
    print()

    # --------------------------------------- execution-estimate improvement
    predicted = 30.0  # a PACE prediction for an unloaded host, seconds
    tracker = LoadTracker()
    static_err, corrected_err = [], []
    for load in trace:
        actual = predicted * (1.0 + load)
        static_err.append(abs(predicted - actual))
        corrected_err.append(abs(predicted * tracker.slowdown() - actual))
        tracker.observe(float(load))
    print(render_table(
        ["estimator", "mean abs error (s)", "p95 abs error (s)"],
        [
            ["static (paper)", f"{np.mean(static_err):.2f}",
             f"{np.percentile(static_err, 95):.2f}"],
            ["forecast-corrected", f"{np.mean(corrected_err):.2f}",
             f"{np.percentile(corrected_err, 95):.2f}"],
        ],
        title=f"Estimating a {predicted:.0f}s task under dynamic load",
    ))
    improvement = 1.0 - np.mean(corrected_err) / np.mean(static_err)
    print(f"\nForecast correction removes {improvement:.0%} of the estimation error.")


if __name__ == "__main__":
    main()
