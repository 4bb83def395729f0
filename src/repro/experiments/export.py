"""Exporting experiment results to JSON and CSV.

The harness prints the paper's tables; downstream analysis (plotting,
statistics across seeds) wants machine-readable output.  These functions
serialise :class:`~repro.experiments.runner.ExperimentResult` objects:

* :func:`metrics_to_dict` / :func:`results_to_json` — the full metric
  structure, workload digest, and per-agent routing counters;
* :func:`table3_to_csv` — Table 3's layout as CSV.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Any, Dict, List, Sequence

from repro.errors import ValidationError
from repro.experiments.runner import ExperimentResult
from repro.metrics.balancing import GridMetrics

__all__ = [
    "metrics_to_dict",
    "result_to_dict",
    "results_to_json",
    "table3_to_csv",
]


def _clean(value: float) -> Any:
    """JSON-safe float: NaN/inf become None."""
    if isinstance(value, float) and (math.isnan(value) or math.isinf(value)):
        return None
    return value


def metrics_to_dict(metrics: GridMetrics) -> Dict[str, Any]:
    """Serialise one experiment's GridMetrics."""
    def row(m) -> Dict[str, Any]:
        return {
            "epsilon_seconds": _clean(m.epsilon),
            "upsilon_percent": _clean(m.upsilon_percent),
            "beta_percent": _clean(m.beta_percent),
            "tasks": m.n_tasks,
            "nodes": m.n_nodes,
        }

    return {
        "horizon_seconds": metrics.horizon,
        "per_resource": {
            name: row(m) for name, m in metrics.per_resource.items()
        },
        "total": row(metrics.total),
    }


def result_to_dict(result: ExperimentResult) -> Dict[str, Any]:
    """Serialise one full experiment result."""
    return {
        "experiment": result.config.name,
        "policy": result.config.policy.value,
        "agents_enabled": result.config.agents_enabled,
        "request_count": result.config.request_count,
        "master_seed": result.config.master_seed,
        "metrics": metrics_to_dict(result.metrics),
        "messages_sent": result.messages_sent,
        "rejected_count": result.rejected_count,
        "wall_seconds": round(result.wall_seconds, 3),
        "cache": {
            "requests": result.cache_stats.requests,
            "hit_rate": round(result.cache_stats.hit_rate, 4),
        },
        "agent_stats": {
            name: {
                "requests_seen": stats.requests_seen,
                "submitted_locally": stats.submitted_locally,
                "forwarded": stats.forwarded,
                "escalated": stats.escalated,
                "rejected": stats.rejected,
            }
            for name, stats in result.agent_stats.items()
        },
    }


def results_to_json(results: Sequence[ExperimentResult], *, indent: int = 2) -> str:
    """Serialise a list of experiment results as a JSON document."""
    if not results:
        raise ValidationError("results must not be empty")
    return json.dumps([result_to_dict(r) for r in results], indent=indent)


def table3_to_csv(results: Sequence[ExperimentResult]) -> str:
    """Table 3's layout (rows = resources, 3 metric columns per experiment)."""
    if not results:
        raise ValidationError("results must not be empty")
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    header: List[str] = ["resource"]
    for i in range(len(results)):
        header += [f"e{i + 1}_epsilon_s", f"e{i + 1}_upsilon_pct", f"e{i + 1}_beta_pct"]
    writer.writerow(header)
    names = list(results[0].metrics.per_resource) + ["__total__"]
    for name in names:
        row: List[Any] = [results[0].metrics.total.name if name == "__total__" else name]
        for result in results:
            m = (
                result.metrics.total
                if name == "__total__"
                else result.metrics.resource(name)
            )
            row += [
                _clean(round(m.epsilon, 3) if m.epsilon == m.epsilon else float("nan")),
                round(m.upsilon_percent, 3),
                round(m.beta_percent, 3),
            ]
        writer.writerow(row)
    return buffer.getvalue()
