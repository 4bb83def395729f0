"""The cell × contender harness, and every spec's ``--check`` rules.

Each spec's checks must pass on its fixture run (the same run the
per-experiment acceptance tests read) and must fail on a doctored copy
of it — a rule that can never fail checks nothing.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cli import TOURNAMENTS, build_parser
from repro.errors import ExperimentError
from repro.experiments.tournament import (
    TournamentResult,
    fraction,
    plan_tournament,
    render_tournament,
    rounded,
)

SPECS = {spec.name: spec for spec in TOURNAMENTS}


def parse(name: str, argv=()):
    return build_parser().parse_args([name, *argv])


def doctored(result: TournamentResult, cell: str, contender: str, **changes):
    """*result* with one point's fields replaced."""
    grid = dict(result.grid)
    grid[cell, contender] = replace(grid[cell, contender], **changes)
    return TournamentResult(result.header, grid)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_checks_pass_on_the_fixture_run(name, tournament_run):
    args, result = tournament_run(name)
    assert SPECS[name].checks(result, args) == []


#: One broken invariant per spec: (spec, cell, contender, the doctoring
#: as a function of the fixture result, the failure it must produce).
BROKEN = [
    (
        "experiment4", "loss0.2-churn0", "resilient",
        lambda r: {"succeeded": r.point("loss0.2-churn0", "no-retry").succeeded - 1},
        "resilient completed",
    ),
    (
        "experiment5", "churn0.5-grey0", "static",
        lambda r: {"deadline_met": r.point("churn0.5-grey0", "healing").deadline_met},
        "healing does not beat the static hierarchy at churn=0.5, grey=0",
    ),
    (
        "experiment6", "clean", "auction",
        lambda r: {"succeeded": r.point("clean", "auction").submitted - 1},
        "clean cell incomplete under auction",
    ),
    (
        "experiment7", "fork-join-uniform", "naive",
        lambda r: {
            "deadline_met": r.point("fork-join-uniform", "aware").deadline_met + 1
        },
        "aware lost the deadline SLO in fork-join-uniform",
    ),
]


@pytest.mark.parametrize(
    "name, cell, contender, changes, failure",
    BROKEN,
    ids=[case[0] for case in BROKEN],
)
def test_checks_fail_on_a_doctored_run(
    name, cell, contender, changes, failure, tournament_run
):
    args, result = tournament_run(name)
    broken = doctored(result, cell, contender, **changes(result))
    failures = SPECS[name].checks(broken, args)
    assert any(failure in message for message in failures), failures


class TestHarness:
    def test_repeated_cell_is_rejected_before_running(self):
        args = parse("experiment6", ["--requests", "4", "--cells", "clean", "clean"])
        with pytest.raises(ExperimentError, match="repeated"):
            plan_tournament(SPECS["experiment6"], args)

    def test_plan_is_cell_major(self):
        args = parse(
            "experiment6",
            ["--requests", "4", "--cells", "loss", "clean",
             "--policies", "auction", "eq10"],
        )
        plan = plan_tournament(SPECS["experiment6"], args)
        assert [(cell.name, kind) for cell, kind in plan] == [
            ("loss", "auction"), ("loss", "eq10"),
            ("clean", "auction"), ("clean", "eq10"),
        ]

    def test_render_uses_the_spec_columns(self, tournament_run):
        spec = SPECS["experiment7"]
        _, result = tournament_run("experiment7")
        lines = render_tournament(spec, result).splitlines()
        assert lines[0] == spec.title
        for heading, _ in spec.columns:
            assert heading in lines[1]
        assert len(lines) == 3 + len(result.points)

    def test_cell_formatters(self):
        assert fraction(3, 4) == "3/4 (75%)"
        assert fraction(0, 0) == "0/0 (0%)"
        assert rounded(2.46, 1) == 2.5
        assert rounded(float("nan")) is None
