"""The §4 case study: configurations, workload, runner, tables and figures.

The package re-exports the run API only; every other name is imported
from its defining module (DESIGN.md §4, "a run imports what it runs").
"""

from repro.experiments.casestudy import case_study_topology
from repro.experiments.config import table2_experiments
from repro.experiments.runner import build_grid, run_experiment
from repro.experiments.tables import check_paper_trends, run_table3, validate_table1
from repro.experiments.workload import generate_workload

__all__ = [
    "build_grid",
    "case_study_topology",
    "check_paper_trends",
    "generate_workload",
    "run_experiment",
    "run_table3",
    "table2_experiments",
    "validate_table1",
]
