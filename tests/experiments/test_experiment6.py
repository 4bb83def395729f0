"""Experiment 6 acceptance: the policy tournament is honest and anchored.

The tournament's contract, asserted on a reduced-size run of the real
grid:

* the eq10 clean-cell point is the seed path (parity verification finds
  zero divergences);
* every policy still completes the clean cell fully — alternative
  dispatch rules must not lose requests on a healthy grid;
* within a cell all policies replay one identical workload, so the cell
  builder must hand out the same request stream to clean/loss/churn;
* the structural-invariant probes run clean through the trace checker
  and actually exercise the protocols they claim to check.
"""

from __future__ import annotations

import pytest

from repro.agents.policy import POLICY_KINDS
from repro.cli import build_parser
from repro.errors import ExperimentError
from repro.experiments.experiment6 import (
    CELLS,
    EXPERIMENT6,
    experiment6_cells,
    run_policy_invariants,
    verify_clean_parity,
)
from repro.experiments.tournament import render_tournament

REQUESTS = 24
BURSTY_AGENTS = 24


@pytest.fixture(scope="module")
def result(tournament_run):
    return tournament_run("experiment6")[1]


class TestParityAnchor:
    def test_tournament_parity_is_clean(self):
        assert verify_clean_parity(request_count=REQUESTS, master_seed=2003) == []

    def test_standalone_parity_is_clean(self):
        assert verify_clean_parity(request_count=12, master_seed=7) == []


class TestTournamentShape:
    def test_one_point_per_policy_and_cell(self, result):
        assert [(p.cell, p.policy) for p in result.points] == [
            (c, p) for c in CELLS for p in POLICY_KINDS
        ]
        assert list(result.grid) == [
            (p.cell, p.policy) for p in result.points
        ]

    def test_cell_points_ordered_by_policy(self, result):
        for cell in CELLS:
            points = [p for p in result.points if p.cell == cell]
            assert [p.policy for p in points] == list(POLICY_KINDS)

    def test_point_lookup_raises_on_unknown(self, result):
        with pytest.raises(ExperimentError, match="no point"):
            result.point("quiet", "eq10")

    def test_every_policy_completes_the_clean_cell(self, result):
        for kind in POLICY_KINDS:
            point = result.point("clean", kind)
            assert point.completion_rate == 1.0
            assert point.unresolved == 0

    def test_points_account_for_every_request(self, result):
        for point in result.points:
            assert point.submitted > 0
            assert (
                point.succeeded + point.failed + point.unresolved
                == point.submitted
            )
            assert point.deadline_met <= point.succeeded

    def test_render_includes_every_cell(self, result):
        table = render_tournament(EXPERIMENT6, result)
        for cell in CELLS:
            assert cell in table
        assert "met deadline" in table
        assert table.count("\n") >= len(result.points)

    def test_json_matches_golden(self, result, assert_golden_json):
        assert_golden_json("experiment6", result)


class TestCellBuilder:
    def test_case_study_cells_share_one_workload(self):
        cells = {
            c.name: c
            for c in experiment6_cells(
                request_count=REQUESTS, cells=("clean", "loss", "churn")
            )
        }
        assert cells["clean"].workload == cells["loss"].workload
        assert cells["clean"].workload == cells["churn"].workload
        assert cells["clean"].topology is cells["loss"].topology

    def test_bursty_cell_has_its_own_grid(self):
        clean, bursty = experiment6_cells(
            request_count=REQUESTS,
            bursty_agents=BURSTY_AGENTS,
            cells=("clean", "bursty"),
        )
        assert len(bursty.topology.agent_names) > len(
            clean.topology.agent_names
        )
        assert bursty.workload != clean.workload

    def test_unknown_cell_rejected(self):
        with pytest.raises(ExperimentError, match="unknown experiment-6"):
            experiment6_cells(cells=("clean", "calm"))

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment6", "--policies", "dictator"])


class TestStructuralInvariants:
    @pytest.fixture(scope="class")
    def probes(self):
        return run_policy_invariants(request_count=40, master_seed=2003)

    def test_probe_traces_are_violation_free(self, probes):
        for probe in probes:
            assert probe.violations == ()

    def test_protocols_actually_fired(self, probes):
        by_policy = {p.policy: p for p in probes}
        assert by_policy["auction"].record_counts.get("auction.settle", 0) > 0
        assert by_policy["reservation"].record_counts.get("resv.book", 0) > 0

    def test_probes_cover_clean_and_churn(self, probes):
        assert [(p.policy, p.cell) for p in probes] == [
            ("auction", "clean"),
            ("reservation", "churn"),
        ]
