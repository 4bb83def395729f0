#!/usr/bin/env python3
"""The paper's §4 case study, end to end — Tables 1–3 and Figures 8–10.

Runs all three experiments of Table 2 over the seeded 600-request workload
on the 12-agent Fig. 7 grid, prints every evaluation artefact in the
paper's layout, and checks the qualitative trends.  Takes about a minute;
pass ``--requests N`` for a quicker scaled run.

Run:  python examples/full_casestudy.py [--requests 600] [--seed 2003]
"""

from __future__ import annotations

import argparse

from repro.experiments.tables import check_paper_trends, run_table3, table1_rows
from repro.metrics.ascii_plot import ascii_line_chart
from repro.metrics.reporting import figure_series, render_figure_series, render_table3
from repro.utils.tables import render_table
from repro.utils.timefmt import format_duration


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=600,
                        help="workload size (paper: 600)")
    parser.add_argument("--seed", type=int, default=2003,
                        help="master seed (workload is identical across experiments)")
    args = parser.parse_args()

    # ------------------------------------------------------------- Table 1
    headers = ["application", "deadlines"] + [str(k) for k in range(1, 17)]
    rows = [
        [name, f"[{b[0]:.0f},{b[1]:.0f}]"] + [f"{t:.0f}" for t in times]
        for name, b, times in table1_rows()
    ]
    print(render_table(headers, rows,
                       title="Table 1: PACE predictions on SGIOrigin2000 (s)"))
    print()

    # ------------------------------------------------------------- Table 2
    print(render_table(
        ["", "1", "2", "3"],
        [["FIFO Algorithm", "x", "", ""],
         ["GA Algorithm", "", "x", "x"],
         ["Agent-based Service Discovery", "", "", "x"]],
        title="Table 2: experiment design",
    ))
    print()

    # --------------------------------------------------------- experiments
    print(f"Running experiments 1-3 ({args.requests} requests, seed {args.seed})...")
    results = run_table3(master_seed=args.seed, request_count=args.requests)
    for result in results:
        print(
            f"  {result.config.name}: wall {result.wall_seconds:.1f}s, "
            f"virtual horizon {format_duration(result.horizon)}, "
            f"{result.messages_sent} messages, "
            f"cache hit rate {result.cache_stats.hit_rate:.0%}"
        )
    print()

    # ------------------------------------------------------------- Table 3
    metrics = [r.metrics for r in results]
    print(render_table3(metrics, title="Table 3: experiment results"))
    print()
    print("(paper totals: e1 -475s/26%/31%, e2 -295s/38%/42%, e3 +32s/80%/90%)")
    print()

    # --------------------------------------------------------- Figures 8-10
    for metric, title in (
        ("epsilon", "Figure 8: advance time ε (s)"),
        ("upsilon", "Figure 9: resource utilisation υ (%)"),
        ("beta", "Figure 10: load balancing level β (%)"),
    ):
        print(render_figure_series(metrics, metric, title=title))
        print()
        # The paper highlights the extreme platforms; same here.
        print(ascii_line_chart(
            figure_series(metrics, metric),
            highlight=["S1", "S2", "S11", "S12"],
            x_labels=["exp 1", "exp 2", "exp 3"],
            title=title + " — curves",
        ))
        print()

    # ---------------------------------------------------------- trend check
    print("Qualitative trend checks (the paper's conclusions):")
    all_hold = True
    for check in check_paper_trends(results):
        status = "PASS" if check.holds else "FAIL"
        all_hold &= check.holds
        print(f"  {status}  {check.name}: {check.detail}")
    print()
    print("All paper trends reproduced." if all_hold
          else "Some trends did not reproduce at this scale; "
               "the full 600-request workload reproduces all of them.")


if __name__ == "__main__":
    main()
