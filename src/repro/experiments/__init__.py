"""The §4 case study: configurations, workload, runner, tables and figures."""

from repro.experiments.casestudy import (
    CASE_STUDY_PLATFORMS,
    CASE_STUDY_TREE,
    GridTopology,
    case_study_topology,
    scaled_topology,
)
from repro.experiments.config import ExperimentConfig, table2_experiments
from repro.experiments.export import (
    metrics_to_dict,
    result_to_dict,
    results_to_json,
    table3_to_csv,
)
from repro.experiments.runner import (
    DegradedRun,
    ExperimentResult,
    GridSystem,
    build_grid,
    run_degraded,
    run_experiment,
)
from repro.experiments.sweep import SeedSweepSummary, run_seed_sweep
from repro.experiments.tables import (
    TrendCheck,
    check_paper_trends,
    figure8_series,
    figure9_series,
    figure10_series,
    run_table3,
    table1_rows,
    validate_table1,
)
from repro.experiments.workload import WorkloadItem, generate_workload, workload_summary

__all__ = [
    "CASE_STUDY_PLATFORMS",
    "CASE_STUDY_TREE",
    "GridTopology",
    "case_study_topology",
    "scaled_topology",
    "ExperimentConfig",
    "table2_experiments",
    "metrics_to_dict",
    "result_to_dict",
    "results_to_json",
    "table3_to_csv",
    "DegradedRun",
    "ExperimentResult",
    "GridSystem",
    "build_grid",
    "run_degraded",
    "run_experiment",
    "SeedSweepSummary",
    "run_seed_sweep",
    "TrendCheck",
    "check_paper_trends",
    "figure8_series",
    "figure9_series",
    "figure10_series",
    "run_table3",
    "table1_rows",
    "validate_table1",
    "WorkloadItem",
    "generate_workload",
    "workload_summary",
]
