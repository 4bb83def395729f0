"""Property: the workflow layer is invisible until a workflow starts.

The DAG machinery rides along every grid — ``TaskRequest.workflow``
defaults to ``None``, schedulers carry empty gate/floor tables, and a
:class:`~repro.tasks.workflow.WorkflowCoordinator` may be attached to
the portal of any run.  None of that may perturb an independent-task
run: with zero workflows started, every completion record, metric,
message count, RNG stream position, and canonical trace line must be
byte-identical to a run without the coordinator — per seed, under the
strict rule and in the Experiment-4 acceptance cell (20% loss, 25%
churn).  Scenario generation gets the same treatment: requesting
workflows must not shift the independent workload's RNG stream.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

import repro.experiments.runner as runner
from repro.experiments.config import table2_experiments
from repro.experiments.experiment4 import (
    degradation_config,
    experiment4_base_config,
)
from repro.experiments.runner import WorkflowStream, run_degraded, run_experiment
from repro.experiments.scenarios import ScenarioSpec, generate_scenario
from repro.obs.records import canonical_lines
from repro.obs.trace import MemorySink, Tracer
from repro.tasks.workflow import WorkflowCoordinator

SEEDS = (2003, 7, 41, 97, 1234)
REQUESTS = 12


def metrics_json(metrics) -> str:
    return json.dumps(asdict(metrics), sort_keys=True)


def assert_same_run(baseline, variant) -> None:
    assert baseline.records == variant.records
    assert metrics_json(baseline.metrics) == metrics_json(variant.metrics)
    assert baseline.messages_sent == variant.messages_sent
    assert baseline.messages_delivered == variant.messages_delivered
    assert baseline.rng_digest == variant.rng_digest


def run_strict(config, *, coordinator: bool):
    """A strict run; the idle coordinator comes from an empty workflow
    stream, armed exactly as Experiment 7 arms its streams."""
    tracer = Tracer(MemorySink())
    result = run_experiment(
        config,
        tracer=tracer,
        workflows=WorkflowStream((), "staged", aware=True) if coordinator else None,
    )
    return result, canonical_lines(tracer.records)


def run_faulty(config, *, coordinator: bool):
    """A degraded run.  The driver refuses workflow streams under faults,
    so the idle coordinator is attached to the portal as the grid is built."""
    tracer = Tracer(MemorySink())
    with pytest.MonkeyPatch.context() as patch:
        if coordinator:
            build = runner.build_grid

            def build_with_coordinator(*args, **kwargs):
                system = build(*args, **kwargs)
                WorkflowCoordinator(
                    system.portal,
                    {name: spec.model for name, spec in system.specs.items()},
                    tracer=tracer,
                )
                return system

            patch.setattr(runner, "build_grid", build_with_coordinator)
        run = run_degraded(config, tracer=tracer)
    return run, canonical_lines(tracer.records)


class TestIdleCoordinatorIsByteIdentical:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_strict_loop(self, seed):
        config = table2_experiments(master_seed=seed, request_count=REQUESTS)[2]
        baseline, base_lines = run_strict(config, coordinator=False)
        variant, var_lines = run_strict(config, coordinator=True)
        assert_same_run(baseline, variant)
        assert base_lines == var_lines

    def test_faulty_cell(self):
        """The Experiment-4 acceptance cell: 20% loss, 25% churn."""
        config = degradation_config(
            experiment4_base_config(request_count=20), loss=0.2, churn_rate=0.25
        )
        baseline, base_lines = run_faulty(config, coordinator=False)
        variant, var_lines = run_faulty(config, coordinator=True)
        assert_same_run(baseline.result, variant.result)
        assert baseline.counters == variant.counters
        assert baseline.crashes == variant.crashes
        assert base_lines == var_lines

    def test_matches_public_entry_points(self):
        """The traced helpers above match plain calls of the entry points."""
        config = table2_experiments(master_seed=2003, request_count=REQUESTS)[2]
        ours, _ = run_strict(config, coordinator=False)
        theirs = run_experiment(config)
        assert_same_run(ours, theirs)

        faulty = degradation_config(
            experiment4_base_config(request_count=20), loss=0.2, churn_rate=0.25
        )
        ours_f, _ = run_faulty(faulty, coordinator=False)
        theirs_f = run_degraded(faulty)
        assert_same_run(ours_f.result, theirs_f.result)


class TestScenarioWorkflowStreamIsIndependent:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_requesting_workflows_leaves_the_workload_alone(self, seed):
        base = ScenarioSpec(
            name="wf-off", agent_count=12, request_count=30, master_seed=seed
        )
        with_wf = ScenarioSpec(
            name="wf-off",
            agent_count=12,
            request_count=30,
            master_seed=seed,
            workflow_count=4,
            workflow_shape="fork-join",
        )
        plain = generate_scenario(base)
        mixed = generate_scenario(with_wf)
        assert plain.workflows == ()
        assert len(mixed.workflows) == 4
        # separate `scenario-workflows` RNG stream: the independent
        # workload and topology are untouched by the workflow draw
        assert mixed.workload == plain.workload
        assert mixed.topology.agent_names == plain.topology.agent_names
