"""What ``build_grid`` builds: random streams only for components that draw,
and one node table per hardware type.

A scheduler gets its ``ga-<name>`` stream only when its policy draws from
it (GA and random), as the ``exec-<name>`` and ``prediction-noise``
streams already exist only when runtime or prediction noise is on.
Resources with the same (platform, node count) share one validated node
tuple, id map and slowest platform.  Neither rule changes what a grid
simulates; the one value that moves is the RNG digest of a grid whose
components draw nothing, which is the digest of the empty registry.
Snapshots keep their layout: a FIFO snapshot lists no ``ga-*`` stream,
and one written while FIFO grids still held those streams restores,
because restore re-creates every stream a snapshot lists.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from dataclasses import asdict

import pytest

from repro.checkpoint.format import read_snapshot, write_snapshot
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    build_grid,
    checkpoint_run,
    resume_run,
    run_experiment,
)
from repro.experiments.scenarios import ScenarioSpec, generate_scenario
from repro.scheduling.scheduler import SchedulingPolicy
from repro.utils.rng import RngRegistry
from tests.oracles import names

#: sha256 of nothing: the digest of a registry that holds no stream.
EMPTY_DIGEST = hashlib.sha256().hexdigest()

#: A 30-request random-policy run at seed 2003 when every scheduler still
#: held a ``ga-*`` stream: completion records, metrics and RNG digest.
RANDOM_RECORDS = "3575cc4d411f192d972be25b506d5b12d0619d2fb9407f18339fd6f108cc8502"
RANDOM_METRICS = "cb2a3b8d4fb5c5457324f9ee053c0235cd21313f946d3bb76a4320eba5361916"
RANDOM_RNG = "c3a869ee4c7b49ae835fd6148010b856497f3a2d70a1fa0113b354f6f6dadf7f"

#: The same run under FIFO then: its RNG digest covered twelve undrawn
#: ``ga-*`` streams.
FIFO_RNG_WITH_GA_STREAMS = (
    "db777e80e859413f0454c2ab4287fd5f21c19524f936bc30a76c7ff2a24ced79"
)


def config(policy: SchedulingPolicy, request_count: int = 30) -> ExperimentConfig:
    return ExperimentConfig(
        name=f"build-{policy.value}",
        policy=policy,
        agents_enabled=True,
        request_count=request_count,
        master_seed=2003,
    )


def sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


def ga_streams(rngs) -> set:
    return {name for name in names(rngs) if name.startswith("ga-")}


class TestRandomStreams:
    @pytest.mark.parametrize(
        "policy", [SchedulingPolicy.FIFO, SchedulingPolicy.ROUND_ROBIN]
    )
    def test_static_policies_that_never_draw_hold_no_ga_stream(self, policy):
        system = build_grid(config(policy))
        assert ga_streams(system.rngs) == set()
        assert system.rngs.state_digest() == EMPTY_DIGEST

    @pytest.mark.parametrize("policy", [SchedulingPolicy.GA, SchedulingPolicy.RANDOM])
    def test_drawing_policies_hold_one_ga_stream_per_agent(self, policy):
        system = build_grid(config(policy))
        assert ga_streams(system.rngs) == {f"ga-{name}" for name in system.agents}

    def test_random_policy_run_is_unchanged(self):
        result = run_experiment(config(SchedulingPolicy.RANDOM))
        assert sha([asdict(r) for r in result.records]) == RANDOM_RECORDS
        assert sha(asdict(result.metrics)) == RANDOM_METRICS
        assert result.rng_digest == RANDOM_RNG


class TestSharedNodeTables:
    @pytest.fixture(scope="class")
    def system(self):
        spec = ScenarioSpec(
            name="g300-build",
            agent_count=300,
            branching=3,
            request_count=10,
            rate=1.0,
            arrival="poisson",
            master_seed=2003,
        )
        scenario = generate_scenario(spec)
        return build_grid(spec.config(), scenario.topology)

    def test_one_node_tuple_per_hardware_type(self, system):
        by_hardware = defaultdict(list)
        for name, scheduler in system.schedulers.items():
            resource = scheduler.resource
            assert resource.name == name
            key = (system.topology.platforms[name], system.topology.nproc[name])
            by_hardware[key].append(resource)
        assert len(by_hardware) > 1
        tables = set()
        for resources in by_hardware.values():
            first = resources[0]
            assert all(r.nodes is first.nodes for r in resources)
            tables.add(id(first.nodes))
        assert len(tables) == len(by_hardware)

    def test_slowest_platform_equals_a_scan_of_the_nodes(self, system):
        for scheduler in system.schedulers.values():
            resource = scheduler.resource
            scanned = max(
                (n.platform for n in resource.nodes), key=lambda p: p.speed_factor
            )
            assert resource.slowest_platform() is scanned


class TestFifoSnapshots:
    AT_STEP = 300

    @pytest.fixture(scope="class")
    def full(self):
        return run_experiment(config(SchedulingPolicy.FIFO))

    def checkpoint(self, path: str) -> dict:
        checkpoint_run(config(SchedulingPolicy.FIFO), at_step=self.AT_STEP, path=path)
        return read_snapshot(path)

    def assert_same_run(self, full, resumed):
        assert [asdict(r) for r in resumed.records] == [asdict(r) for r in full.records]
        assert sha(asdict(resumed.metrics)) == sha(asdict(full.metrics))

    def test_lists_no_ga_stream_and_resumes_byte_identically(self, full, tmp_path):
        path = str(tmp_path / "fifo.json")
        payload = self.checkpoint(path)
        assert not any(name.startswith("ga-") for name in payload["system"]["rngs"])
        resumed = resume_run(path)
        self.assert_same_run(full, resumed)
        assert resumed.rng_digest == full.rng_digest == EMPTY_DIGEST

    def test_snapshot_listing_undrawn_ga_streams_still_restores(self, full, tmp_path):
        """A snapshot written while FIFO grids held a ``ga-*`` stream each.

        Such a snapshot differs only by those entries, each at its seeded
        start because FIFO never draws; restore re-creates every listed
        stream, so the run resumes with the digest it had then.
        """
        path = str(tmp_path / "fifo-with-ga.json")
        payload = self.checkpoint(path)
        registry = RngRegistry(2003)
        for name in payload["system"]["schedulers"]:
            registry.stream(f"ga-{name}")
        payload["system"]["rngs"].update(registry.snapshot_state())
        write_snapshot(path, payload)
        resumed = resume_run(path)
        self.assert_same_run(full, resumed)
        assert resumed.rng_digest == FIFO_RNG_WITH_GA_STREAMS
