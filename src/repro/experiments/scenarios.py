"""Parametric scenario generation: grids and workloads beyond the paper.

The case study stops at 12 agents and 600 metronomic requests.  This module
generates whole experiment *scenarios* — topology plus workload — across
the scale axis the ROADMAP targets (12 → 5000 agents) and across arrival
processes real portals exhibit:

========== ==============================================================
uniform    the paper's metronomic arrivals (one per ``1/rate`` seconds)
poisson    memoryless arrivals at mean *rate*
mmpp       2-state Markov-modulated Poisson process: quiet periods
           punctuated by bursts at ``BURST_MULTIPLIER`` × the base rate
diurnal    sinusoidally rate-modulated Poisson (Lewis–Shedler thinning),
           a day/night load cycle compressed to ``DIURNAL_PERIOD_S`` seconds
pareto     heavy-tailed inter-arrival gaps (Pareto-I with shape
           ``PARETO_ALPHA``), same mean gap as the Poisson case
========== ==============================================================

Everything is drawn from named :class:`~repro.utils.rng.RngRegistry`
streams of the spec's master seed, so a scenario is a pure function of its
spec: the same spec always yields a byte-identical grid and workload
(property-tested), and generated runs checkpoint, resume, and replay like
the paper-scale ones.  Two independent streams are used on purpose —
``scenario-topology`` for the hardware mix and ``scenario-workload`` for
request targeting — so changing the arrival process never reshuffles which
agent or application a request hits.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

from repro.agents.membership import MembershipConfig
from repro.agents.resilience import ResilienceConfig
from repro.errors import ExperimentError
from repro.experiments.casestudy import GridTopology
from repro.experiments.config import ExperimentConfig
from repro.experiments.workload import WorkloadItem
from repro.pace.workloads import paper_application_specs
from repro.scheduling.scheduler import SchedulingPolicy
from repro.tasks.graph import (
    WORKFLOW_SHAPES,
    TaskGraph,
    fork_join,
    map_reduce,
    montage,
)
from repro.utils.rng import RngRegistry

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.net.faults import ChurnSpec, FaultPlanSpec

__all__ = [
    "ARRIVAL_PROCESSES",
    "CASE_STUDY_MIX",
    "CHAOS_PRESETS",
    "MAX_AGENTS",
    "Scenario",
    "ScenarioSpec",
    "WorkflowItem",
    "generate_scenario",
    "generate_topology",
    "generate_arrival_times",
    "generate_workflows",
    "scenario_fingerprint",
    "workflow_graph",
]

#: Supported arrival processes (see the module table).
ARRIVAL_PROCESSES = ("uniform", "poisson", "mmpp", "diurnal", "pareto")

#: Chaos tiers a scenario can opt into (``ScenarioSpec.chaos``):
#: ``"none"`` (default, byte-identical to pre-chaos scenarios),
#: ``"loss"`` (plan-wide message drop + latency jitter),
#: ``"coordinator-churn"`` (a quarter of the coordinators crash for good),
#: ``"stragglers"`` (~2% of the leaves go grey: slow responses, slow
#: service), and ``"grey-combo"`` (churn + stragglers + mild loss).
CHAOS_PRESETS = ("none", "loss", "coordinator-churn", "stragglers", "grey-combo")

#: Grey-failure severity used by the chaos presets: a straggler's sends
#: arrive ``uniform(0.5, 1.5) × 3 s`` late — enough to trip suspicion on
#: the default detector, never enough to confirm death — and its tasks run
#: twice as slow as predicted.
CHAOS_STRAGGLER_DELAY = 3.0
CHAOS_STRAGGLER_FACTOR = 2.0
#: Fraction of coordinators the churn presets crash (restarts never fire —
#: the downtime outlives any run, making every crash permanent).
CHAOS_CHURN_RATE = 0.25
CHAOS_CHURN_DOWNTIME = 1e9

#: Ceiling on generated grid size — the ROADMAP's 100× target with slack.
MAX_AGENTS = 5000

#: Stage depth per workflow shape — the number of sequential graph levels,
#: used to scale a whole-graph deadline from the per-task Table 1 domains.
_SHAPE_DEPTH: Mapping[str, int] = {
    "fork-join": 3,
    "map-reduce": 4,
    "montage": 5,
}

#: The case study's hardware proportions (Fig. 7: 2/2/3/3/2 agents across
#: the PACE platform table) as sampling weights — generated grids stay as
#: heterogeneous as the paper's.
CASE_STUDY_MIX: Mapping[str, float] = {
    "SGIOrigin2000": 2.0,
    "SunUltra10": 2.0,
    "SunUltra5": 3.0,
    "SunUltra1": 3.0,
    "SunSPARCstation2": 2.0,
}

#: MMPP shape: bursts arrive at ``rate × BURST_MULTIPLIER``; the burst and
#: calm state holding times are exponential with these means (seconds).
BURST_MULTIPLIER = 8.0
BURST_MEAN_S = 10.0
CALM_MEAN_S = 60.0
#: Diurnal shape:
#: ``rate(t) = rate · (1 + DIURNAL_AMPLITUDE·sin(2πt / DIURNAL_PERIOD_S))``.
DIURNAL_PERIOD_S = 600.0
DIURNAL_AMPLITUDE = 0.8
#: Pareto tail index (above 1 so the mean gap exists; smaller is heavier).
PARETO_ALPHA = 1.5
#: Every generated workflow graph's fan width and per-edge output size.
WORKFLOW_WIDTH = 4
WORKFLOW_OUTPUT_SIZE = 4.0


@dataclass(frozen=True)
class ScenarioSpec:
    """Full parameterisation of one generated scenario.

    Parameters
    ----------
    agent_count:
        Grid size, 1–:data:`MAX_AGENTS` agents (one cluster each).
    branching:
        Hierarchy fan-out: agents form a complete *branching*-ary tree
        (depth therefore ≈ ``log_branching(agent_count)``).
    nproc:
        Processing nodes per cluster (the paper uses 16).
    request_count / rate:
        Workload length and mean arrival rate (requests per virtual
        second) — every arrival process is parameterised to this mean.
    arrival:
        One of :data:`ARRIVAL_PROCESSES`; the shape of each process is
        fixed by the module constants above.
    deadline_scale:
        Multiplier on every drawn Table-1 deadline offset.
    master_seed:
        Seed for every stream the generator draws from.
    chaos:
        One of :data:`CHAOS_PRESETS`.  ``"none"`` (default) changes
        nothing; any other tier folds a fault plan, churn schedule, and
        the robustness layer (ACK/retry + membership with healing) into
        :meth:`config`, and stamps the tier into the scenario
        fingerprint.
    """

    name: str
    agent_count: int
    branching: int = 3
    nproc: int = 16
    request_count: int = 600
    rate: float = 1.0
    arrival: str = "poisson"
    deadline_scale: float = 1.0
    master_seed: int = 2003
    chaos: str = "none"
    # Workflow family (Experiment 7).  ``workflow_count=0`` (the default)
    # generates no workflows and leaves the scenario — including its
    # fingerprint — byte-identical to the pre-workflow generator.
    workflow_count: int = 0
    workflow_shape: str = "mixed"  # one of WORKFLOW_SHAPES or "mixed"

    def __post_init__(self) -> None:
        if not self.name:
            raise ExperimentError("scenario name must be non-empty")
        if not (1 <= self.agent_count <= MAX_AGENTS):
            raise ExperimentError(
                f"agent_count must be in [1, {MAX_AGENTS}], got {self.agent_count}"
            )
        if self.branching < 1:
            raise ExperimentError(f"branching must be >= 1, got {self.branching}")
        if self.nproc < 1:
            raise ExperimentError(f"nproc must be >= 1, got {self.nproc}")
        if self.request_count < 1:
            raise ExperimentError("request_count must be >= 1")
        if self.rate <= 0:
            raise ExperimentError(f"rate must be > 0, got {self.rate}")
        if self.arrival not in ARRIVAL_PROCESSES:
            raise ExperimentError(f"unknown arrival process {self.arrival!r}")
        if self.deadline_scale <= 0:
            raise ExperimentError("deadline_scale must be > 0")
        if self.master_seed < 0:
            raise ExperimentError("master_seed must be >= 0")
        if self.chaos not in CHAOS_PRESETS:
            raise ExperimentError(
                f"unknown chaos preset {self.chaos!r} (choose from {CHAOS_PRESETS})"
            )
        if self.workflow_count < 0:
            raise ExperimentError("workflow_count must be >= 0")
        if self.workflow_shape not in WORKFLOW_SHAPES + ("mixed",):
            raise ExperimentError(
                f"unknown workflow shape {self.workflow_shape!r} "
                f"(choose from {WORKFLOW_SHAPES + ('mixed',)})"
            )

    def straggler_names(self) -> Tuple[str, ...]:
        """The agents the chaos presets turn grey — a pure spec function.

        The last ~2% of agents (minimum one) in generation order: in the
        complete *branching*-ary tree those are always leaves, so grey
        failures degrade workers, not routing interior.  Empty when the
        grid is a single agent (the head must not straggle alone).
        """
        if self.chaos not in ("stragglers", "grey-combo"):
            return ()
        count = max(1, self.agent_count // 50)
        names = [f"G{i + 1}" for i in range(self.agent_count)]
        eligible = names[1:]
        return tuple(eligible[len(eligible) - min(count, len(eligible)):])

    def chaos_fault_spec(self) -> Optional[FaultPlanSpec]:
        """The fault plan for this spec's chaos tier (``None`` for none)."""
        from repro.net.faults import FaultPlanSpec, StragglerFault

        stragglers = tuple(
            StragglerFault(
                node=name,
                response_delay=CHAOS_STRAGGLER_DELAY,
                service_factor=CHAOS_STRAGGLER_FACTOR,
            )
            for name in self.straggler_names()
        )
        if self.chaos == "loss":
            return FaultPlanSpec(drop_probability=0.05, latency_jitter=0.5)
        if self.chaos == "stragglers":
            return FaultPlanSpec(stragglers=stragglers) if stragglers else None
        if self.chaos == "grey-combo":
            return FaultPlanSpec(
                drop_probability=0.02, latency_jitter=0.5, stragglers=stragglers
            )
        return None

    def chaos_churn_spec(self) -> Optional[ChurnSpec]:
        """The churn spec for this spec's chaos tier (``None`` for none)."""
        if self.chaos in ("coordinator-churn", "grey-combo"):
            from repro.net.faults import ChurnSpec

            return ChurnSpec(
                rate=CHAOS_CHURN_RATE,
                downtime=CHAOS_CHURN_DOWNTIME,
                target="coordinators",
            )
        return None

    def config(
        self,
        *,
        policy: SchedulingPolicy = SchedulingPolicy.FIFO,
        agents_enabled: bool = True,
        **overrides,
    ) -> ExperimentConfig:
        """An :class:`ExperimentConfig` matched to this scenario.

        Request count, mean interval, and master seed mirror the spec;
        the policy defaults to FIFO because scale-tier runs measure the
        engine and fabric, not the GA (pass ``policy=SchedulingPolicy.GA``
        for paper-faithful scheduling).  Any config field can be
        overridden by keyword.

        A chaos tier other than ``"none"`` arms the whole robustness
        stack: the tier's fault plan and churn schedule, ACK/retry with a
        registry TTL, and membership with self-healing.  Overrides still
        win (pass ``membership=...`` for the static-hierarchy ablation).
        """
        base = ExperimentConfig(
            name=f"scenario-{self.name}",
            policy=policy,
            agents_enabled=agents_enabled,
            request_count=self.request_count,
            request_interval=1.0 / self.rate,
            master_seed=self.master_seed,
        )
        if self.chaos != "none":
            base = replace(
                base,
                name=f"{base.name}-{self.chaos}",
                faults=self.chaos_fault_spec(),
                churn=self.chaos_churn_spec(),
                resilience=ResilienceConfig.resilient(base.pull_interval),
                membership=MembershipConfig(enabled=True),
            )
        return replace(base, **overrides) if overrides else base


@dataclass(frozen=True)
class WorkflowItem:
    """One workflow instance of the stream: when, where, and what shape."""

    submit_time: float
    agent_name: str
    shape: str
    width: int
    output_size: float
    deadline: float  # absolute deadline of the whole graph

    def __post_init__(self) -> None:
        if self.shape not in WORKFLOW_SHAPES:
            raise ExperimentError(f"unknown workflow shape {self.shape!r}")
        if self.deadline <= self.submit_time:
            raise ExperimentError(
                f"deadline {self.deadline} not after submit {self.submit_time}"
            )

    def graph(self) -> TaskGraph:
        """The task graph this item instantiates (pure, see :func:`workflow_graph`)."""
        return workflow_graph(self.shape, self.width, self.output_size)


def workflow_graph(shape: str, width: int, output_size: float) -> TaskGraph:
    """Instantiate one workflow-family graph over the paper's applications.

    A pure function of its arguments — node/application assignment comes
    from cycling the Table 1 application list in node order, so the same
    ``(shape, width, output_size)`` always yields an identical graph.
    """
    apps = list(paper_application_specs())
    if shape == "fork-join":
        return fork_join(apps, width=width, output_size=output_size)
    if shape == "map-reduce":
        reducers = max(1, width // 2)
        return map_reduce(
            apps, mappers=width, reducers=reducers, output_size=output_size
        )
    if shape == "montage":
        return montage(apps, width=width, output_size=output_size)
    raise ExperimentError(f"unknown workflow shape {shape!r}")


@dataclass(frozen=True)
class Scenario:
    """One generated scenario: its spec, the grid, and the request stream."""

    spec: ScenarioSpec
    topology: GridTopology
    workload: Tuple[WorkloadItem, ...]
    #: The workflow stream — empty unless ``spec.workflow_count > 0``.
    workflows: Tuple[WorkflowItem, ...] = ()

    @property
    def horizon(self) -> float:
        """Submit time of the last request."""
        return self.workload[-1].submit_time

    def summary(self) -> Dict[str, object]:
        """Shape of the scenario for reporting: sizes, mix, arrival stats."""
        mix: Dict[str, int] = {}
        for platform in self.topology.platforms.values():
            mix[platform] = mix.get(platform, 0) + 1
        gaps = [
            b.submit_time - a.submit_time
            for a, b in zip(self.workload, self.workload[1:])
        ]
        return {
            "agents": self.spec.agent_count,
            "total_nodes": self.topology.total_nodes,
            "platform_mix": dict(sorted(mix.items())),
            "arrival": self.spec.arrival,
            "requests": len(self.workload),
            "horizon_s": self.horizon,
            "mean_gap_s": (sum(gaps) / len(gaps)) if gaps else 0.0,
            "max_gap_s": max(gaps) if gaps else 0.0,
        }


def generate_topology(spec: ScenarioSpec) -> GridTopology:
    """The spec's grid: a branching-ary tree with a seeded hardware mix.

    Agents are named G1..Gn; G1 heads the hierarchy.  Platforms are drawn
    independently per agent from :data:`CASE_STUDY_MIX` via the
    ``scenario-topology`` stream, so the same seed always builds the same
    grid and a different seed redraws only the hardware assignment.
    """
    rng = RngRegistry(spec.master_seed).stream("scenario-topology")
    names = [f"G{i + 1}" for i in range(spec.agent_count)]
    platform_names = sorted(CASE_STUDY_MIX)
    weights = [CASE_STUDY_MIX[p] for p in platform_names]
    total = sum(weights)
    probabilities = [w / total for w in weights]
    draws = rng.choice(len(platform_names), size=len(names), p=probabilities)
    platforms = {name: platform_names[int(k)] for name, k in zip(names, draws)}
    parent_of: Dict[str, Optional[str]] = {
        name: (None if i == 0 else names[(i - 1) // spec.branching])
        for i, name in enumerate(names)
    }
    return GridTopology(
        platforms=platforms,
        parent_of=parent_of,
        nproc={name: spec.nproc for name in names},
    )


def generate_arrival_times(spec: ScenarioSpec) -> List[float]:
    """``request_count`` strictly increasing submit times for the spec.

    All processes share the mean rate ``spec.rate``; they differ in
    variance and correlation structure (see the module table).  Drawn
    from the ``scenario-arrivals`` stream only.
    """
    rng = RngRegistry(spec.master_seed).stream("scenario-arrivals")
    count = spec.request_count
    mean_gap = 1.0 / spec.rate
    times: List[float] = []
    t = 0.0
    if spec.arrival == "uniform":
        return [(i + 1) * mean_gap for i in range(count)]
    if spec.arrival == "poisson":
        for _ in range(count):
            t += float(rng.exponential(mean_gap))
            times.append(t)
        return times
    if spec.arrival == "pareto":
        # Pareto-I gaps: scale x_m chosen so the mean gap α·x_m/(α-1)
        # equals 1/rate.  Inverse-CDF sampling on u ∈ (0, 1].
        alpha = PARETO_ALPHA
        x_m = (alpha - 1.0) * mean_gap / alpha
        for _ in range(count):
            u = 1.0 - float(rng.random())
            t += x_m / (u ** (1.0 / alpha))
            times.append(t)
        return times
    if spec.arrival == "mmpp":
        # 2-state MMPP: exponential holding times per state; within a
        # state, Poisson arrivals at that state's rate.  A gap crossing
        # the state boundary is redrawn in the new state (memorylessness
        # makes the discard exact, not an approximation).
        rates = (spec.rate, spec.rate * BURST_MULTIPLIER)
        holds = (CALM_MEAN_S, BURST_MEAN_S)
        state = 0
        state_end = t + float(rng.exponential(holds[state]))
        while len(times) < count:
            gap = float(rng.exponential(1.0 / rates[state]))
            if t + gap <= state_end:
                t += gap
                times.append(t)
            else:
                t = state_end
                state = 1 - state
                state_end = t + float(rng.exponential(holds[state]))
        return times
    # Diurnal: Lewis–Shedler thinning of the peak-rate Poisson process
    # against rate(t) = rate·(1 + amplitude·sin(2πt/period)).
    peak = spec.rate * (1.0 + DIURNAL_AMPLITUDE)
    omega = 2.0 * math.pi / DIURNAL_PERIOD_S
    while len(times) < count:
        t += float(rng.exponential(1.0 / peak))
        current = spec.rate * (1.0 + DIURNAL_AMPLITUDE * math.sin(omega * t))
        if float(rng.random()) * peak <= current:
            times.append(t)
    return times


def generate_workflows(
    spec: ScenarioSpec, topology: GridTopology
) -> List[WorkflowItem]:
    """The spec's workflow stream (empty when ``workflow_count`` is 0).

    Drawn entirely from the ``scenario-workflows`` stream — the
    independent-task workload streams are untouched, so adding workflows
    to a spec never reshuffles its background requests.  Arrivals follow
    the spec's arrival process in expectation (exponential gaps spanning
    the request phase); shapes cycle (``"mixed"``) or repeat; entry
    agents are drawn uniformly; the whole-graph deadline scales the mean
    Table 1 per-task domain by the shape's stage depth.
    """
    if spec.workflow_count == 0:
        return []
    rng = RngRegistry(spec.master_seed).stream("scenario-workflows")
    specs = paper_application_specs()
    low = sum(s.deadline_bounds[0] for s in specs.values()) / len(specs)
    high = sum(s.deadline_bounds[1] for s in specs.values()) / len(specs)
    names = list(topology.agent_names)
    span = spec.request_count / spec.rate
    mean_gap = span / spec.workflow_count
    items: List[WorkflowItem] = []
    t = 0.0
    for i in range(spec.workflow_count):
        if spec.arrival == "uniform":
            t = (i + 1) * mean_gap
        else:
            t += float(rng.exponential(mean_gap))
        shape = (
            WORKFLOW_SHAPES[i % len(WORKFLOW_SHAPES)]
            if spec.workflow_shape == "mixed"
            else spec.workflow_shape
        )
        agent = names[int(rng.integers(len(names)))]
        depth = _SHAPE_DEPTH[shape]
        offset = depth * float(rng.uniform(low, high)) * spec.deadline_scale
        items.append(
            WorkflowItem(
                submit_time=t,
                agent_name=agent,
                shape=shape,
                width=WORKFLOW_WIDTH,
                output_size=WORKFLOW_OUTPUT_SIZE,
                deadline=t + offset,
            )
        )
    return items


def generate_scenario(spec: ScenarioSpec) -> Scenario:
    """Generate the full scenario for *spec* — topology plus workload.

    Request targeting (entry agent, application, deadline offset) comes
    from the ``scenario-workload`` stream, independent of the arrival
    stream, so specs differing only in arrival process hit the same
    agents with the same applications at different instants.
    """
    topology = generate_topology(spec)
    arrival_times = generate_arrival_times(spec)
    rng = RngRegistry(spec.master_seed).stream("scenario-workload")
    specs = paper_application_specs()
    names = list(topology.agent_names)
    app_names = list(specs)
    items: List[WorkloadItem] = []
    for t in arrival_times:
        agent = names[int(rng.integers(len(names)))]
        app = app_names[int(rng.integers(len(app_names)))]
        low, high = specs[app].deadline_bounds
        offset = float(rng.uniform(low, high)) * spec.deadline_scale
        items.append(
            WorkloadItem(
                submit_time=t,
                agent_name=agent,
                application=app,
                deadline=t + offset,
            )
        )
    return Scenario(
        spec=spec,
        topology=topology,
        workload=tuple(items),
        workflows=tuple(generate_workflows(spec, topology)),
    )


def scenario_fingerprint(scenario: Scenario) -> str:
    """sha256 over the scenario's canonical JSON — the determinism witness.

    Two scenarios agree on this digest iff their grids and workloads are
    byte-identical (same platforms, tree, node counts, and every request's
    time/target/application/deadline).  The determinism tests assert the
    fingerprint is a pure function of the spec.
    """
    body = {
        "platforms": [[k, v] for k, v in scenario.topology.platforms.items()],
        "parent_of": [[k, v] for k, v in scenario.topology.parent_of.items()],
        "nproc": [[k, v] for k, v in scenario.topology.nproc.items()],
        "workload": [
            [item.submit_time, item.agent_name, item.application, item.deadline]
            for item in scenario.workload
        ],
    }
    # The chaos tier changes what the run injects, not the grid or the
    # requests — but two scenarios differing only in tier are different
    # experiments, so it joins the identity.  "none" is omitted to keep
    # every pre-chaos fingerprint stable.
    if scenario.spec.chaos != "none":
        body["chaos"] = scenario.spec.chaos
    # Same pattern as the chaos key: the workflow stream joins the
    # identity only when present, keeping pre-workflow fingerprints stable.
    if scenario.workflows:
        body["workflows"] = [
            [w.submit_time, w.agent_name, w.shape, w.width, w.output_size, w.deadline]
            for w in scenario.workflows
        ]
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
