"""Experiment 5 acceptance: healing must pay for itself, detection must
not cry wolf.

The study's headline claims, asserted directly on a reduced-size run of
the real grid:

* under coordinator churn, the healing arm strictly beats the static
  ablation on deadline-met rate in *every* churn cell;
* the straggler-only column confirms zero deaths (grey failures are
  quarantined, never executed);
* repairs actually happen, terminate, and are accounted (orphans ≤
  adoptions + promotions).
"""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments.casestudy import case_study_topology
from repro.experiments.experiment4 import experiment4_base_config
from repro.experiments.experiment5 import (
    CONTENDERS,
    EXPERIMENT5,
    experiment5_config,
    leaf_names,
)
from repro.experiments.tournament import render_tournament

CHURN_RATES = (0.0, 0.5)
STRAGGLER_COUNTS = (0, 2)


def cell(churn: float, stragglers: int) -> str:
    return f"churn{churn:g}-grey{stragglers}"


@pytest.fixture(scope="module")
def result(tournament_run):
    return tournament_run("experiment5")[1]


class TestHealingAdvantage:
    def test_healing_beats_static_in_every_churn_cell(self, result):
        for stragglers in STRAGGLER_COUNTS:
            healed = result.point(cell(0.5, stragglers), "healing")
            static = result.point(cell(0.5, stragglers), "static")
            assert healed.deadline_met_rate > static.deadline_met_rate, (
                f"healing must strictly beat static at churn=0.5, "
                f"grey={stragglers}"
            )

    def test_churn_actually_crashed_coordinators(self, result):
        for arm in CONTENDERS:
            point = result.point(cell(0.5, 0), arm)
            assert point.crashes > 0
            assert point.membership.confirms > 0

    def test_repairs_terminate_and_balance(self, result):
        for churn in CHURN_RATES:
            for stragglers in STRAGGLER_COUNTS:
                m = result.point(cell(churn, stragglers), "healing").membership
                assert m.orphaned <= m.adoptions_completed + m.promotions
        # The ablation never repairs anything.
        for churn in CHURN_RATES:
            m = result.point(cell(churn, 0), "static").membership
            assert m.adoptions_completed == 0 and m.promotions == 0


class TestNoFalsePositives:
    def test_straggler_only_cell_confirms_nobody_dead(self, result):
        """Grey failures are slow, not dead: zero confirms, zero crashes."""
        for arm in CONTENDERS:
            point = result.point(cell(0.0, 2), arm)
            assert point.crashes == 0
            assert point.membership.confirms == 0

    def test_clean_cell_is_quiet(self, result):
        point = result.point(cell(0.0, 0), "healing")
        assert point.crashes == 0
        assert point.membership.confirms == 0
        assert point.membership.orphaned == 0
        assert point.completion_rate == 1.0


class TestPlumbing:
    def test_point_lookup_raises_on_unknown_cell(self, result):
        with pytest.raises(ExperimentError, match="no point"):
            result.point(cell(0.9, 7), "healing")

    def test_grid_is_cell_major(self, result):
        assert list(result.grid) == [
            (cell(churn, stragglers), arm)
            for churn in CHURN_RATES
            for stragglers in STRAGGLER_COUNTS
            for arm in CONTENDERS
        ]

    def test_render_includes_every_cell(self, result):
        table = render_tournament(EXPERIMENT5, result)
        assert "healing" in table and "met deadline" in table
        assert table.count("\n") >= len(result.points)

    def test_json_matches_golden(self, result, assert_golden_json):
        assert_golden_json("experiment5", result)

    def test_config_wires_the_chaos(self):
        topology = case_study_topology()
        config = experiment5_config(
            experiment4_base_config(request_count=10),
            topology,
            churn_rate=0.5,
            straggler_count=2,
            healing=False,
        )
        assert config.membership.enabled and not config.membership.heal
        assert config.resilience.enabled
        assert config.churn is not None
        assert config.churn.target == "coordinators"
        assert config.faults is not None
        stragglers = config.faults.stragglers
        assert [s.node for s in stragglers] == leaf_names(topology)[-2:]
        assert config.name.endswith("-churn0.5-grey2-static")

    def test_straggler_count_is_bounded_by_leaves(self):
        topology = case_study_topology()
        with pytest.raises(ExperimentError, match="leaves"):
            experiment5_config(
                experiment4_base_config(request_count=10),
                topology,
                straggler_count=len(leaf_names(topology)) + 1,
            )

    def test_leaf_names_excludes_coordinators(self):
        topology = case_study_topology()
        leaves = leaf_names(topology)
        assert leaves
        parents = {p for p in topology.parent_of.values() if p is not None}
        assert not parents & set(leaves)
