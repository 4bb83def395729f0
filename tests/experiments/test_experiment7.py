"""Experiment 7 acceptance: the DAG tournament is valid and complete.

Asserted on a reduced-size run of the real grid:

* every dispatched workflow task passed the ``dispatch-after-inputs``
  trace rule (the run is checked, not trusted);
* both modes resolve every workflow in the clean cells;
* the cell builder is deterministic per seed and rejects unknown cells;
* the report renders one row per (cell, mode).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import ExperimentError
from repro.experiments.experiment7 import (
    CELLS,
    EXPERIMENT7,
    MODES,
    experiment7_cells,
    slo_regressions,
)
from repro.experiments.tournament import TournamentResult, render_tournament

RUN_CELLS = ("fork-join-uniform", "pipeline")
WORKFLOWS = 3


@pytest.fixture(scope="module")
def result(tournament_run):
    return tournament_run("experiment7")[1]


class TestCellBuilder:
    def test_unknown_cell_is_rejected(self):
        with pytest.raises(ExperimentError, match="unknown experiment-7 cells"):
            experiment7_cells(cells=("fork-join-hourly",))

    def test_builder_is_deterministic(self):
        first = experiment7_cells(workflow_count=2, cells=RUN_CELLS)
        second = experiment7_cells(workflow_count=2, cells=RUN_CELLS)
        assert [c.name for c in first] == list(RUN_CELLS)
        for a, b in zip(first, second):
            assert a.release_mode == b.release_mode
            assert [w.submit_time for w in a.workflows] == [
                w.submit_time for w in b.workflows
            ]
            assert [w.graph().to_dict() for w in a.workflows] == [
                w.graph().to_dict() for w in b.workflows
            ]

    def test_pipeline_cell_is_eager_and_local(self):
        (cell,) = experiment7_cells(workflow_count=2, cells=("pipeline",))
        assert cell.release_mode == "eager"
        assert cell.config.agents_enabled is False

    def test_full_matrix_names(self):
        assert len(CELLS) == 7
        assert CELLS[-1] == "pipeline"


class TestTournamentRun:
    def test_one_point_per_cell_and_mode(self, result):
        assert list(result.grid) == [(c, m) for c in RUN_CELLS for m in MODES]
        assert [(p.cell, p.mode) for p in result.points] == list(result.grid)

    def test_checked_run_has_no_violations(self, result):
        assert [v for p in result.points for v in p.violations] == []

    def test_clean_cells_resolve_every_workflow(self, result):
        for point in result.points:
            assert point.workflows == WORKFLOWS
            assert point.workflows_succeeded == WORKFLOWS
            assert point.tasks_succeeded == point.tasks_submitted

    def test_dag_records_flow_only_in_staged_cells(self, result):
        staged = result.point("fork-join-uniform", "aware")
        assert staged.dag_records.get("dag.ready", 0) > 0
        assert staged.dag_records.get("dag.transfer", 0) > 0
        assert staged.bytes_moved > 0
        eager = result.point("pipeline", "aware")
        assert eager.bytes_moved == 0.0  # eager graphs never leave the cluster

    def test_point_accessor_rejects_unknown(self, result):
        with pytest.raises(ExperimentError, match="no point"):
            result.point("fork-join-uniform", "psychic")

    def test_slo_regressions_structure(self, result):
        assert slo_regressions(result) == []
        aware = result.point("pipeline", "aware")
        grid = dict(result.grid)
        grid["pipeline", "naive"] = replace(
            grid["pipeline", "naive"], deadline_met=aware.deadline_met + 1
        )
        (regression,) = slo_regressions(TournamentResult(result.header, grid))
        assert regression == (
            f"pipeline: aware met {aware.deadline_met} deadlines vs "
            f"naive {aware.deadline_met + 1}"
        )


class TestReporting:
    def test_render_has_one_row_per_point(self, result):
        text = render_tournament(EXPERIMENT7, result)
        for point in result.points:
            assert point.cell in text
        assert text.count("aware") >= len(RUN_CELLS)
        assert "bytes" in text or "moved" in text

    def test_json_matches_golden(self, result, assert_golden_json):
        assert_golden_json("experiment7", result)
