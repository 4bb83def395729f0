"""The case-study workload generator (§4.1).

"During each experiment, requests for one of the seven test applications
are sent at one second intervals to randomly selected agents.  The required
execution time deadline for the application is also selected randomly from
a given domain ... While the selection of agents, applications and
requirements are random, the seed is set to the same so that the workload
for each experiment is identical."

The generator is a pure function of ``(agent names, specs, count, interval,
seed)``: the same inputs always produce the identical request sequence, so
experiments 1–3 replay one workload exactly, as the paper requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

from repro.errors import ExperimentError
from repro.pace.workloads import ApplicationSpec
from repro.utils.rng import stream

__all__ = ["WorkloadItem", "generate_workload", "workload_summary"]


@dataclass(frozen=True)
class WorkloadItem:
    """One request of the workload: when, to whom, what, and by when."""

    submit_time: float
    agent_name: str
    application: str
    deadline: float  # absolute virtual time

    def __post_init__(self) -> None:
        if self.deadline <= self.submit_time:
            raise ExperimentError(
                f"deadline {self.deadline} not after submit {self.submit_time}"
            )


def generate_workload(
    agent_names: Sequence[str],
    specs: Mapping[str, ApplicationSpec],
    *,
    count: int = 600,
    interval: float = 1.0,
    master_seed: int = 2003,
    arrival: str = "uniform",
    deadline_scale: float = 1.0,
) -> List[WorkloadItem]:
    """The seeded §4.1 request sequence.

    By default requests are emitted at ``interval`` seconds apart starting
    at ``t = interval``; agent, application and deadline offset are drawn
    uniformly (the deadline from the application's Table 1 domain) — the
    paper's setting exactly.

    Two robustness knobs extend it:

    * ``arrival="poisson"`` replaces the paper's metronomic arrivals with a
      Poisson process of the same mean rate (bursty, as real portals are);
    * ``deadline_scale`` multiplies every drawn deadline offset — < 1 makes
      the workload tighter than the paper's, > 1 looser.
    """
    if not agent_names:
        raise ExperimentError("agent_names must not be empty")
    if not specs:
        raise ExperimentError("specs must not be empty")
    if count < 1:
        raise ExperimentError(f"count must be >= 1, got {count}")
    if interval <= 0:
        raise ExperimentError(f"interval must be > 0, got {interval}")
    if arrival not in ("uniform", "poisson"):
        raise ExperimentError(f"unknown arrival process {arrival!r}")
    if deadline_scale <= 0:
        raise ExperimentError(f"deadline_scale must be > 0, got {deadline_scale}")
    rng = stream(master_seed, "workload")
    names = list(agent_names)
    app_names = list(specs)
    items: List[WorkloadItem] = []
    t = 0.0
    for i in range(count):
        if arrival == "uniform":
            t = (i + 1) * interval
        else:
            t += float(rng.exponential(interval))
        agent = names[int(rng.integers(len(names)))]
        app = app_names[int(rng.integers(len(app_names)))]
        low, high = specs[app].deadline_bounds
        offset = float(rng.uniform(low, high)) * deadline_scale
        items.append(
            WorkloadItem(
                submit_time=t,
                agent_name=agent,
                application=app,
                deadline=t + offset,
            )
        )
    return items


def workload_summary(items: Sequence[WorkloadItem]) -> Dict[str, Dict[str, float]]:
    """Counts per agent and per application (workload sanity reporting)."""
    per_agent: Dict[str, int] = {}
    per_app: Dict[str, int] = {}
    for item in items:
        per_agent[item.agent_name] = per_agent.get(item.agent_name, 0) + 1
        per_app[item.application] = per_app.get(item.application, 0) + 1
    return {"per_agent": per_agent, "per_application": per_app}
