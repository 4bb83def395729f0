#!/usr/bin/env python3
"""Compare two result documents of the end-to-end benchmark.

    python3 benchmarks/e2e/compare.py BASE.json CHANGED.json

Both documents come from ``run.py --out``.  Each workload gets one row.
For every end-to-end metric the row shows a verdict and the change of the
median, signed so that a positive number is worse:

``better``      CHANGED beats BASE on every input (or, with no input in
                common, every sample of CHANGED beats every one of BASE)
``worse``       the median got worse by more than the metric's bound
``unresolved``  the noise (quartile distance over median of the
                per-input ratios, or of the samples) is wider than the
                bound, so the bound cannot be judged
``ok``          otherwise

The simulated metrics are a pure function of each input, so they are
compared over the inputs both runs made (same seed): ``identical``;
``within`` when their medians moved less than a change of the GA's random
stream moves them (README.md); or ``worse``.  The exit status is 1 when
any metric is ``worse`` or the changed run failed a correctness check.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from summary import median, spread  # noqa: E402

BENCHMARK = HERE.parent.parent / "BENCHMARK.json"

#: Simulated metric -> which direction is better.
SIMULATED_BETTER: Dict[str, str] = {
    "deadline_met_frac": "higher",
    "epsilon_s": "higher",
    "upsilon_pct": "higher",
    "beta_pct": "higher",
    "response_s_p50": "lower",
    "response_s_p95": "lower",
}

#: Largest change of a simulated metric's median over six inputs that a
#: legitimate change of the GA's random stream produced: the batched
#: against the vectorized GA kernel, seeds 2003-2007 (README.md), rounded
#: up, in the metric's own units.  ``grid1000`` runs no GA, so any change
#: there is a change of behaviour.
SIMULATED_TOLERANCE: Dict[str, Dict[str, float]] = {
    "casestudy": {
        "deadline_met_frac": 0.04, "epsilon_s": 2.0, "upsilon_pct": 3.5,
        "beta_pct": 2.5, "response_s_p50": 1.0, "response_s_p95": 4.0,
    },
    "casestudy_burst": {
        "deadline_met_frac": 0.04, "epsilon_s": 2.0, "upsilon_pct": 4.5,
        "beta_pct": 3.5, "response_s_p50": 1.5, "response_s_p95": 4.0,
    },
    "workflow_dag": {
        "deadline_met_frac": 0.13, "epsilon_s": 3.0, "upsilon_pct": 0.5,
        "beta_pct": 6.5, "response_s_p50": 1.5, "response_s_p95": 54.0,
    },
}


def load_bounds(path: Path = BENCHMARK) -> Dict[str, Tuple[float, str]]:
    """End-to-end metric name -> (bound, better) from BENCHMARK.json."""
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def verdict(base: dict, changed: dict, bound: float, better: str) -> Tuple[str, float]:
    """``(verdict, worsening)`` for one end-to-end metric of one workload.

    With inputs in common (same seed) the runs are compared input by
    input: the ratios changed/base cancel the work that differs between
    inputs, their median is the change and their spread the noise.
    Otherwise the medians and the spreads of the two sets of samples are
    compared.  The worsening is relative, positive when worse.
    """
    sign = 1.0 if better == "lower" else -1.0
    common = sorted(set(base.get("by_input", {})) & set(changed.get("by_input", {})))
    if common:
        ratios = [changed["by_input"][k] / base["by_input"][k] for k in common]
        worsening = sign * (median(ratios) - 1.0)
        wins = all(sign * (r - 1.0) < 0 for r in ratios)
        noise = spread(ratios)
    else:
        worsening = sign * (changed["median"] - base["median"]) / abs(base["median"])
        if better == "lower":
            wins = max(changed["samples"]) < min(base["samples"])
        else:
            wins = min(changed["samples"]) > max(base["samples"])
        noise = max(spread(base["samples"]), spread(changed["samples"]))
    if wins:
        return "better", worsening
    if noise > bound:
        return "unresolved", worsening
    if worsening > bound:
        return "worse", worsening
    return "ok", worsening


def simulated_verdict(workload: str, base: dict, changed: dict) -> Tuple[str, List[str]]:
    """Compare one workload's simulated metrics over the inputs both runs made.

    Returns ``identical``, ``within`` or ``worse`` with the metrics that got
    worse past their tolerance, or ``not compared`` when the runs share no
    input.
    """
    tolerance = SIMULATED_TOLERANCE.get(workload, {})
    identical = True
    worse = []
    for name, b in base.items():
        c = changed.get(name, {"by_input": {}})
        common = sorted(set(b["by_input"]) & set(c["by_input"]))
        if not common:
            return "not compared", []
        before = [b["by_input"][k] for k in common]
        after = [c["by_input"][k] for k in common]
        if before == after:
            continue
        identical = False
        change = median(after) - median(before)
        sign = 1.0 if SIMULATED_BETTER.get(name, "lower") == "lower" else -1.0
        if sign * change > tolerance.get(name, 0.0):
            worse.append(f"{name} {change:+.4g}")
    if identical:
        return "identical", []
    return ("worse" if worse else "within"), worse


def compare(base_doc: dict, changed_doc: dict, bounds) -> Tuple[List[str], bool]:
    """Printable rows and whether any metric regressed."""
    names = list(bounds)
    rows = [f"{'workload':<17}" + "".join(f"{n:<24}" for n in names) + "simulated"]
    regressed = False
    for workload, base in base_doc["workloads"].items():
        changed = changed_doc["workloads"].get(workload)
        if changed is None:
            continue
        cells = []
        for name in names:
            b, c = base["end_to_end"].get(name), changed["end_to_end"].get(name)
            if b is None or c is None:
                cells.append(f"{'-':<24}")
                continue
            bound, better = bounds[name]
            word, worsening = verdict(b, c, bound, better)
            regressed |= word == "worse"
            cells.append(f"{f'{word} ({worsening * 100:+.1f}%)':<24}")
        word, worse = simulated_verdict(workload, base["simulated"], changed["simulated"])
        regressed |= word == "worse"
        sim = word + (f": {', '.join(worse)}" if worse else "")
        if not changed["correct"]:
            sim += "; CHANGED RUN INCORRECT"
            regressed = True
        rows.append(f"{workload:<17}" + "".join(cells) + sim)
    return rows, regressed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two benchmark result documents.")
    parser.add_argument("base")
    parser.add_argument("changed")
    args = parser.parse_args(argv)
    with open(args.base, encoding="utf-8") as fh:
        base_doc = json.load(fh)
    with open(args.changed, encoding="utf-8") as fh:
        changed_doc = json.load(fh)
    rows, regressed = compare(base_doc, changed_doc, load_bounds())
    print("\n".join(rows))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
