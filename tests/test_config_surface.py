"""The settable surface: every knob is pinned, every fixed value is sound.

A value stays settable only while an experiment, ablation, benchmark or
CLI flag sets it, or while it is a parameter of the paper's own model or a
deployment identity (DESIGN.md §4).  Everything else is a module constant.
The first half of this file pins the remaining field and keyword names, so
adding a knob takes a deliberate edit here.  The second half asserts, on
the constants, the relations the retired validators used to enforce.
"""

from __future__ import annotations

import inspect
import multiprocessing
from dataclasses import fields

import pytest

from repro.agents.advertisement import PUSH_MIN_INTERVAL, EventPushStrategy
from repro.agents.agent import DEDUP_CAP, TRANSFER_BANDWIDTH, Agent
from repro.agents.discovery import MAX_HOPS, DiscoveryConfig
from repro.agents.healing import HEAL_RETRY, MAX_HEAL_ATTEMPTS
from repro.agents.membership import (
    CONFIRM_AFTER,
    HEARTBEAT_INTERVAL,
    SUSPECT_AFTER,
    MembershipConfig,
)
from repro.agents.portal import UserPortal
from repro.agents.resilience import (
    ACK_TIMEOUT,
    BACKOFF_BASE,
    MAX_RETRIES,
    ResilienceConfig,
)
from repro.errors import ValidationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import MP_CONTEXT, run_many
from repro.experiments.scenarios import (
    BURST_MEAN_S,
    BURST_MULTIPLIER,
    CALM_MEAN_S,
    CASE_STUDY_MIX,
    DIURNAL_AMPLITUDE,
    DIURNAL_PERIOD_S,
    PARETO_ALPHA,
    WORKFLOW_OUTPUT_SIZE,
    WORKFLOW_WIDTH,
    ScenarioSpec,
)
from repro.net.transport import DROP_RING_SIZE, Transport
from repro.pace.hardware import DEFAULT_CATALOGUE
from repro.scheduling.fifo import FIFOScheduler
from repro.scheduling.ga import (
    BITFLIP_PROBABILITY,
    CROSSOVER_PROBABILITY,
    ELITE_COUNT,
    SWAP_PROBABILITY,
    GAConfig,
)
from repro.scheduling.monitor import DEFAULT_POLL_INTERVAL
from repro.scheduling.scheduler import LocalScheduler

CONFIG_FIELDS = {
    GAConfig: (
        "population_size", "weights", "idle_weighting", "memetic",
        "warmstart_count",
    ),
    DiscoveryConfig: ("strict", "local_only", "data_gravity"),
    ResilienceConfig: ("enabled", "registry_ttl"),
    MembershipConfig: ("enabled", "heal"),
    ScenarioSpec: (
        "name", "agent_count", "branching", "nproc", "request_count", "rate",
        "arrival", "deadline_scale", "master_seed", "chaos", "workflow_count",
        "workflow_shape",
    ),
    ExperimentConfig: (
        "name", "policy", "agents_enabled", "request_count",
        "request_interval", "pull_interval", "master_seed",
        "generations_per_event", "ga_config", "discovery", "prediction_noise",
        "runtime_noise", "advertisement", "freetime_mode", "resilience",
        "faults", "churn", "membership", "global_policy",
    ),
}

KEYWORDS = {
    Transport: ("sim", "tracer"),
    Agent: (
        "name", "endpoint", "scheduler", "transport", "catalogue",
        "discovery_config", "advertisement", "resilience", "membership",
        "global_policy", "tracer",
    ),
    UserPortal: ("transport", "sim", "endpoint", "email", "resilience", "tracer"),
    LocalScheduler: (
        "sim", "resource", "evaluator", "policy", "rng", "ga_config",
        "generations_per_event", "environments", "execution_mode",
        "runtime_noise", "execution_rng", "freetime_mode", "load_profile",
        "duration_correction", "tracer",
    ),
    EventPushStrategy: (),
    FIFOScheduler: ("n_nodes",),
    run_many: ("configs", "jobs", "manifest_dir"),
}


class TestPinnedSurface:
    @pytest.mark.parametrize(
        "config", list(CONFIG_FIELDS), ids=lambda c: c.__name__
    )
    def test_config_fields(self, config):
        assert tuple(f.name for f in fields(config)) == CONFIG_FIELDS[config]

    @pytest.mark.parametrize("target", list(KEYWORDS), ids=lambda t: t.__name__)
    def test_keywords(self, target):
        assert tuple(inspect.signature(target).parameters) == KEYWORDS[target]


class TestConstantRelations:
    def test_detector_timings_are_ordered(self):
        assert 0 < HEARTBEAT_INTERVAL < SUSPECT_AFTER < CONFIRM_AFTER

    def test_healing_retries_terminate(self):
        assert HEAL_RETRY > 0
        assert MAX_HEAL_ATTEMPTS >= 1

    def test_retry_backoff_never_shrinks(self):
        assert ACK_TIMEOUT > 0
        assert MAX_RETRIES >= 0
        assert BACKOFF_BASE >= 1

    @pytest.mark.parametrize(
        "probability",
        [CROSSOVER_PROBABILITY, SWAP_PROBABILITY, BITFLIP_PROBABILITY],
        ids=["crossover", "swap", "bitflip"],
    )
    def test_operator_probabilities(self, probability):
        assert 0 <= probability <= 1

    def test_elites_leave_room_for_children(self):
        smallest = next(
            size for size in range(1, 100) if _accepts_population(size)
        )
        assert 0 <= ELITE_COUNT < smallest

    def test_hop_and_dedup_bounds(self):
        assert MAX_HOPS >= 1
        assert DEDUP_CAP >= 1
        assert DROP_RING_SIZE >= 1

    def test_timings_and_rates(self):
        assert DEFAULT_POLL_INTERVAL > 0
        assert PUSH_MIN_INTERVAL >= 0
        assert TRANSFER_BANDWIDTH > 0
        assert MP_CONTEXT in multiprocessing.get_all_start_methods()

    def test_arrival_shapes(self):
        assert BURST_MULTIPLIER >= 1
        assert BURST_MEAN_S > 0 and CALM_MEAN_S > 0
        assert DIURNAL_PERIOD_S > 0
        assert 0 <= DIURNAL_AMPLITUDE <= 1
        assert PARETO_ALPHA > 1  # the mean gap must exist

    def test_hardware_mix(self):
        assert CASE_STUDY_MIX
        for platform, weight in CASE_STUDY_MIX.items():
            assert platform in DEFAULT_CATALOGUE
            assert weight > 0

    def test_workflow_family(self):
        assert WORKFLOW_WIDTH >= 2
        assert WORKFLOW_OUTPUT_SIZE >= 0


def _accepts_population(size: int) -> bool:
    try:
        GAConfig(population_size=size)
    except ValidationError:
        return False
    return True
