"""The import boundary: an untraced run imports only what it runs.

DESIGN.md §4 ("a run imports what it runs"): package ``__init__``s
re-export nothing beyond the run API, trace records load with the
tracer, and optional layers (faults and churn, the XML renderers,
healing, the auction and reservation policies, soak windows, load
forecasting, checkpointing) load only when a run switches them on.  A
fresh interpreter pays for every module it imports — compiling it, and
running each dataclass decorator in it — so this test is the contract:
it imports what the end-to-end benchmark imports, runs a small untraced
case study, and lists what was loaded.  A second probe imports the CLI,
which every command pays for before it runs: the trace layer, soak
windows and the fault layer load with the commands that use them.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
E2E = ROOT / "benchmarks" / "e2e"

#: Runs in a fresh interpreter; prints the loaded module names as JSON.
PROBE = """
import json, sys
sys.path[:0] = [{src!r}, {e2e!r}]
import workloads  # the benchmark's run-path imports
from repro.experiments.config import table2_experiments
from repro.experiments.runner import run_experiment
run_experiment(table2_experiments(request_count=12)[2])
print(json.dumps(sorted(sys.modules)))
"""

#: Packages no module of which an untraced run may load.
FORBIDDEN_PACKAGES = ("repro.obs", "repro.checkpoint")

#: Modules an untraced, fault-free, default-policy run never executes.
FORBIDDEN_MODULES = (
    "repro.net.faults",
    "repro.net.xmlio",
    "repro.utils.timefmt",
    "xml.etree.ElementTree",
    "repro.agents.healing",
    "repro.agents.auction",
    "repro.agents.reservation",
    "repro.experiments.soak",
    "repro.experiments.sweep",
    "repro.experiments.export",
    "repro.experiments.parallel",
    "repro.pace.forecast",
    "repro.pace.fitting",
    "repro.pace.parametric",
    "repro.pace.structural",
    "repro.sim.reference",
)


#: A fresh ``import repro.cli``: what every command pays before it runs.
CLI_PROBE = """
import json, sys
sys.path[:0] = [{src!r}]
import repro.cli
print(json.dumps(sorted(sys.modules)))
"""

#: What importing the CLI may not load: the trace layer, soak windows and
#: the fault layer load with the commands that use them.
CLI_FORBIDDEN_PACKAGES = ("repro.obs",)
CLI_FORBIDDEN_MODULES = ("repro.experiments.soak", "repro.net.faults")


def loaded_modules(template: str = PROBE) -> list:
    probe = template.format(src=str(SRC), e2e=str(E2E))
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
        cwd=str(ROOT),
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def crossed(loaded: list, modules: tuple, packages: tuple) -> list:
    return sorted(
        name
        for name in loaded
        if name in modules
        or any(
            name == package or name.startswith(package + ".")
            for package in packages
        )
    )


def test_untraced_case_study_stays_inside_the_boundary():
    loaded = loaded_modules()
    assert "repro.experiments.runner" in loaded  # the probe really ran
    assert crossed(loaded, FORBIDDEN_MODULES, FORBIDDEN_PACKAGES) == []


def test_cli_import_stays_inside_the_boundary():
    loaded = loaded_modules(CLI_PROBE)
    assert "repro.cli" in loaded  # the probe really ran
    assert crossed(loaded, CLI_FORBIDDEN_MODULES, CLI_FORBIDDEN_PACKAGES) == []


def test_every_listed_module_exists():
    """A renamed or deleted module must not make the boundary vacuous."""
    listed = (
        FORBIDDEN_MODULES
        + FORBIDDEN_PACKAGES
        + CLI_FORBIDDEN_MODULES
        + CLI_FORBIDDEN_PACKAGES
    )
    for name in listed:
        assert importlib.util.find_spec(name) is not None, name
