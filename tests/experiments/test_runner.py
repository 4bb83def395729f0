"""Integration tests for the experiment runner (scaled-down workloads)."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments.casestudy import scaled_topology
from repro.experiments.config import ExperimentConfig, table2_experiments
from repro.experiments.experiment4 import (
    degradation_config,
    experiment4_base_config,
)
from repro.experiments.experiment7 import experiment7_cells
from repro.experiments.runner import WorkflowStream, build_grid, run_experiment
from repro.scheduling.scheduler import SchedulingPolicy
from tests.oracles import policy

SMALL = 24  # requests; keeps each runner test under a couple of seconds


@pytest.fixture(scope="module")
def small_results():
    """Experiments 1–3 over one small shared workload (module-cached)."""
    configs = table2_experiments(request_count=SMALL)
    from repro.experiments.tables import run_table3

    return run_table3(request_count=SMALL, configs=configs)


class TestBuildGrid:
    def test_case_study_shape(self):
        system = build_grid(table2_experiments(request_count=SMALL)[2])
        assert len(system.agents) == 12
        assert len(system.schedulers) == 12
        assert system.hierarchy.head.name == "S1"
        assert system.portal.submitted_count == 0

    def test_policy_wiring(self):
        fifo_system = build_grid(table2_experiments(request_count=SMALL)[0])
        assert all(
            policy(s) is SchedulingPolicy.FIFO for s in fifo_system.schedulers.values()
        )
        ga_system = build_grid(table2_experiments(request_count=SMALL)[1])
        assert all(
            policy(s) is SchedulingPolicy.GA for s in ga_system.schedulers.values()
        )


class TestRunExperiment:
    def test_every_request_completes(self, small_results):
        for result in small_results:
            assert result.metrics.total.n_tasks == SMALL
            assert result.rejected_count == 0
            assert len(result.records) == SMALL

    def test_workload_identical_across_experiments(self, small_results):
        w1, w2, w3 = (r.workload for r in small_results)
        assert w1 == w2 == w3

    def test_no_agent_forwarding_in_exp1_and_2(self, small_results):
        for result in small_results[:2]:
            assert all(
                stats.forwarded == 0 for stats in result.agent_stats.values()
            )

    def test_exp3_uses_discovery(self, small_results):
        result = small_results[2]
        assert any(stats.forwarded > 0 for stats in result.agent_stats.values())
        assert result.messages_sent > small_results[0].messages_sent

    def test_local_execution_without_agents(self, small_results):
        """Experiments 1–2: every task executes where it was submitted."""
        result = small_results[1]
        by_id = {item.submit_time: item for item in result.workload}
        for record in result.records:
            item = by_id[record.submit_time]
            assert record.resource_name == item.agent_name

    def test_cache_is_exercised(self, small_results):
        for result in small_results[1:]:
            assert result.cache_stats.hit_rate > 0.5

    def test_metrics_cover_all_resources(self, small_results):
        for result in small_results:
            assert set(result.metrics.per_resource) == {
                f"S{i}" for i in range(1, 13)
            }

    def test_determinism(self):
        cfg = table2_experiments(request_count=12)[2]
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.metrics.total.epsilon == b.metrics.total.epsilon
        assert a.metrics.total.upsilon == b.metrics.total.upsilon
        assert [r.completion for r in a.records] == [
            r.completion for r in b.records
        ]


class TestCustomTopology:
    def test_runs_on_scaled_topology(self):
        topo = scaled_topology(4, nproc=4)
        cfg = ExperimentConfig(
            name="scaled",
            policy=SchedulingPolicy.GA,
            agents_enabled=True,
            request_count=10,
        )
        result = run_experiment(cfg, topo)
        assert result.metrics.total.n_tasks == 10
        assert set(result.metrics.per_resource) == {"G1", "G2", "G3", "G4"}

    def test_noise_configs_run(self):
        cfg = ExperimentConfig(
            name="noisy",
            policy=SchedulingPolicy.GA,
            agents_enabled=True,
            request_count=8,
            prediction_noise=0.2,
            runtime_noise=0.1,
        )
        result = run_experiment(cfg, scaled_topology(3, nproc=4))
        assert result.metrics.total.n_tasks == 8


class TestWorkflowStreams:
    @staticmethod
    def stream():
        (cell,) = experiment7_cells(workflow_count=1, cells=["fork-join-uniform"])
        return WorkflowStream(cell.workflows, cell.release_mode, aware=True)

    @pytest.mark.parametrize(
        "loss, churn", [(0.1, 0.0), (0.0, 0.25)], ids=["loss", "churn"]
    )
    def test_refused_under_faults_or_churn(self, loss, churn):
        config = degradation_config(
            experiment4_base_config(request_count=4), loss=loss, churn_rate=churn
        )
        with pytest.raises(ExperimentError, match="fault plan or churn"):
            run_experiment(config, workload=[], workflows=self.stream())

    def test_zero_fault_plan_runs(self):
        config = degradation_config(experiment4_base_config(request_count=4))
        result = run_experiment(config, workload=[], workflows=self.stream())
        assert [outcome.succeeded for outcome in result.workflows] == [True]
