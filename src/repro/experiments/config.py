"""Experiment configurations — Table 2's design matrix and its knobs.

Table 2 defines three experiments over one fixed workload:

========================  =====  =====  =====
                           1      2      3
========================  =====  =====  =====
FIFO algorithm             ✓
GA algorithm                      ✓      ✓
Agent-based discovery                    ✓
========================  =====  =====  =====

:func:`table2_experiments` returns exactly those three configurations.
A field stays a knob only while an experiment, ablation, benchmark or CLI
flag sets it (workload size, pull cadence, GA tunables, prediction noise,
the robustness layers); fixed protocol values are module constants where
they are read (see docs/tuning.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, List, Optional

from repro.agents.discovery import DiscoveryConfig
from repro.agents.membership import MembershipConfig
from repro.agents.policy import GlobalPolicyConfig
from repro.agents.resilience import ResilienceConfig
from repro.errors import ExperimentError
from repro.scheduling.ga import GAConfig
from repro.scheduling.scheduler import SchedulingPolicy

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.net.faults import ChurnSpec, FaultPlanSpec

__all__ = ["ExperimentConfig", "table2_experiments"]


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's full parameterisation.

    Defaults reproduce §4.1: 600 requests at one-second intervals
    ("The request phase of each experiment lasts for ten minutes during
    which 600 task execution requests are sent out"), agents pulling
    service information every ten seconds, and a shared master seed so
    "the workload for each experiment is identical".
    """

    name: str
    policy: SchedulingPolicy
    agents_enabled: bool
    request_count: int = 600
    request_interval: float = 1.0
    pull_interval: float = 10.0
    master_seed: int = 2003
    generations_per_event: int = 10
    ga_config: GAConfig = field(default_factory=GAConfig)
    discovery: DiscoveryConfig = field(default_factory=DiscoveryConfig)
    prediction_noise: float = 0.0
    runtime_noise: float = 0.0
    advertisement: str = "pull"  # "pull" | "push" | "none"
    freetime_mode: str = "makespan"  # "makespan" (paper) | "mean" | "min"
    # Robustness layer (Experiment 4).  All three default to "off" and the
    # defaults are property-tested byte-identical to the seed behaviour.
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    faults: Optional[FaultPlanSpec] = None
    churn: Optional[ChurnSpec] = None
    # Self-healing hierarchy (Experiment 5): heartbeat/lease failure
    # detection plus deterministic re-parenting.  Disabled by default —
    # a default config builds no detector, arms no timers, and is
    # byte-identical to the seed (property-tested).
    membership: MembershipConfig = field(default_factory=MembershipConfig)
    # Global balancing policy (Experiment 6): "eq10" (the paper's rule,
    # the default — byte-identical to the seed path), "auction"
    # (contract-net CFP/bid dispatch), or "reservation" (advance
    # freetime-window booking).  Note ``policy`` above selects the
    # *local* scheduling algorithm (FIFO/GA); this knob selects the
    # *global* dispatch rule the agents run between clusters.
    global_policy: GlobalPolicyConfig = field(default_factory=GlobalPolicyConfig)

    def __post_init__(self) -> None:
        if not self.name:
            raise ExperimentError("experiment name must be non-empty")
        if self.request_count < 1:
            raise ExperimentError("request_count must be >= 1")
        if self.request_interval <= 0:
            raise ExperimentError("request_interval must be > 0")
        if self.pull_interval <= 0:
            raise ExperimentError("pull_interval must be > 0")
        if self.generations_per_event < 0:
            raise ExperimentError("generations_per_event must be >= 0")
        if self.prediction_noise < 0 or self.runtime_noise < 0:
            raise ExperimentError("noise factors must be >= 0")
        if self.advertisement not in ("pull", "push", "none"):
            raise ExperimentError(f"unknown advertisement {self.advertisement!r}")
        if self.freetime_mode not in ("makespan", "mean", "min"):
            raise ExperimentError(f"unknown freetime_mode {self.freetime_mode!r}")
        if self.global_policy.kind != "eq10" and not self.agents_enabled:
            raise ExperimentError(
                f"global policy {self.global_policy.kind!r} requires the "
                "agent mechanism (agents_enabled=True)"
            )
        if not self.agents_enabled and not self.discovery.local_only:
            # Keep the two flags coherent: no agents => local-only discovery.
            object.__setattr__(
                self, "discovery", replace(self.discovery, local_only=True)
            )

    @property
    def request_phase_seconds(self) -> float:
        """Duration of the request phase (600 s in the paper)."""
        return self.request_count * self.request_interval


def table2_experiments(
    *, master_seed: int = 2003, request_count: int = 600
) -> List[ExperimentConfig]:
    """The paper's three experiments, sharing one seeded workload."""
    common = dict(master_seed=master_seed, request_count=request_count)
    return [
        ExperimentConfig(
            name="experiment-1",
            policy=SchedulingPolicy.FIFO,
            agents_enabled=False,
            **common,
        ),
        ExperimentConfig(
            name="experiment-2",
            policy=SchedulingPolicy.GA,
            agents_enabled=False,
            **common,
        ),
        ExperimentConfig(
            name="experiment-3",
            policy=SchedulingPolicy.GA,
            agents_enabled=True,
            **common,
        ),
    ]
