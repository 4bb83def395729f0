"""Tests for the seeded §4.1 workload generator."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments.workload import WorkloadItem, generate_workload, workload_summary
from repro.pace.workloads import TABLE1_DEADLINE_BOUNDS


@pytest.fixture
def agent_names():
    return [f"S{i}" for i in range(1, 13)]


class TestGenerateWorkload:
    def test_count_and_cadence(self, agent_names, specs):
        items = generate_workload(agent_names, specs, count=30, interval=1.0)
        assert len(items) == 30
        assert [it.submit_time for it in items] == [float(i) for i in range(1, 31)]

    def test_same_seed_identical(self, agent_names, specs):
        a = generate_workload(agent_names, specs, count=50, master_seed=5)
        b = generate_workload(agent_names, specs, count=50, master_seed=5)
        assert a == b

    def test_different_seed_differs(self, agent_names, specs):
        a = generate_workload(agent_names, specs, count=50, master_seed=5)
        b = generate_workload(agent_names, specs, count=50, master_seed=6)
        assert a != b

    def test_deadlines_within_bounds(self, agent_names, specs):
        items = generate_workload(agent_names, specs, count=200, master_seed=1)
        for item in items:
            low, high = TABLE1_DEADLINE_BOUNDS[item.application]
            offset = item.deadline - item.submit_time
            assert low <= offset <= high, item

    def test_all_agents_and_apps_drawn(self, agent_names, specs):
        items = generate_workload(agent_names, specs, count=600, master_seed=2003)
        summary = workload_summary(items)
        assert set(summary["per_agent"]) == set(agent_names)
        assert set(summary["per_application"]) == set(specs)

    def test_roughly_uniform_agent_selection(self, agent_names, specs):
        # §4.1: "Each scheduler receives approximately 50 task requests".
        items = generate_workload(agent_names, specs, count=600, master_seed=2003)
        counts = workload_summary(items)["per_agent"]
        assert all(25 <= c <= 75 for c in counts.values()), counts

    def test_interval_scales_phase(self, agent_names, specs):
        items = generate_workload(agent_names, specs, count=10, interval=2.0)
        assert items[-1].submit_time == 20.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"count": 0},
            {"interval": 0.0},
            {"arrival": "bursty"},
            {"deadline_scale": 0.0},
        ],
    )
    def test_invalid_rejected(self, agent_names, specs, kwargs):
        with pytest.raises(ExperimentError):
            generate_workload(agent_names, specs, **kwargs)

    def test_poisson_arrivals(self, agent_names, specs):
        items = generate_workload(
            agent_names, specs, count=200, master_seed=1, arrival="poisson"
        )
        gaps = [
            b.submit_time - a.submit_time for a, b in zip(items, items[1:])
        ]
        assert all(g >= 0 for g in gaps)
        assert len(set(round(g, 6) for g in gaps)) > 100  # irregular
        # Mean inter-arrival stays near the configured rate.
        assert 0.8 <= sum(gaps) / len(gaps) <= 1.25

    def test_deadline_scale(self, agent_names, specs):
        tight = generate_workload(
            agent_names, specs, count=50, master_seed=1, deadline_scale=0.5
        )
        loose = generate_workload(
            agent_names, specs, count=50, master_seed=1, deadline_scale=2.0
        )
        for a, b in zip(tight, loose):
            assert (b.deadline - b.submit_time) == pytest.approx(
                4 * (a.deadline - a.submit_time)
            )

    def test_empty_agents_rejected(self, specs):
        with pytest.raises(ExperimentError):
            generate_workload([], specs)


class TestWorkloadItem:
    def test_deadline_after_submit_required(self):
        with pytest.raises(ExperimentError):
            WorkloadItem(10.0, "S1", "fft", deadline=10.0)
