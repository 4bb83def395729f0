"""Shared tournament runs: one reduced-size run of each of Experiments 4–7.

The per-experiment acceptance tests, the golden JSON pins, and the
``--check`` tests parametrized over every spec (``test_tournament.py``)
all read the same session-scoped runs.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cli import TOURNAMENTS, build_parser
from repro.experiments.tournament import run_tournament, tournament_json

SPECS = {spec.name: spec for spec in TOURNAMENTS}


def parse(name: str, argv=()):
    """The arguments ``repro <name> *argv`` runs with."""
    return build_parser().parse_args([name, *argv])

#: Each spec's fixture run, as ``repro <name> *argv`` would take it.
FIXTURE_ARGV = {
    "experiment4": ["--requests", "30", "--loss", "0.0", "0.2", "--churn", "0.0"],
    "experiment5": ["--requests", "120"],
    "experiment6": ["--requests", "24", "--bursty-agents", "24"],
    "experiment7": ["--workflows", "3", "--cells", "fork-join-uniform", "pipeline"],
}

GOLDEN_DIR = pathlib.Path(__file__).parents[1] / "golden"


@pytest.fixture(scope="session")
def tournament_run():
    """``run(name) -> (args, result)``, each spec's fixture run done once."""
    runs = {}

    def run(name: str):
        if name not in runs:
            args = parse(name, FIXTURE_ARGV[name])
            runs[name] = (args, run_tournament(SPECS[name], args))
        return runs[name]

    return run


@pytest.fixture
def assert_golden_json(update_golden):
    """Pin a tournament's ``--json`` document (minus wall time) to
    ``tests/golden/<name>.json``; ``--update-golden`` rewrites it."""

    def check(name: str, result) -> None:
        doc = tournament_json(result)
        for point in doc["points"]:
            del point["wall_seconds"]
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        path = GOLDEN_DIR / f"{name}.json"
        if update_golden:
            path.write_text(text, encoding="utf-8")
            return
        assert path.exists(), (
            f"golden {path.name} missing — generate it with "
            "`pytest tests/experiments --update-golden`"
        )
        assert text == path.read_text(encoding="utf-8"), (
            f"{name}: --json differs from tests/golden/{path.name}"
        )

    return check
