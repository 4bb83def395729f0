"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.pace.evaluation import EvaluationEngine
from repro.pace.hardware import SGI_ORIGIN_2000, SUN_SPARC_STATION_2
from repro.pace.resource import ResourceModel
from repro.pace.workloads import paper_application_specs, paper_applications
from repro.sim.engine import Engine
from repro.tasks.task import Environment, TaskRequest


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="regenerate the checked-in golden traces instead of "
        "comparing against them (tests/golden/)",
    )


@pytest.fixture
def update_golden(request) -> bool:
    """Whether this run should rewrite the golden traces."""
    return bool(request.config.getoption("--update-golden"))


@pytest.fixture
def sim() -> Engine:
    """A fresh discrete-event engine at t = 0."""
    return Engine()


@pytest.fixture
def evaluator() -> EvaluationEngine:
    """A noise-free evaluation engine with a fresh cache."""
    return EvaluationEngine()


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator for stochastic components."""
    return np.random.default_rng(12345)


@pytest.fixture
def sgi_resource() -> ResourceModel:
    """A 16-node SGIOrigin2000 resource (the case study's S1)."""
    return ResourceModel.homogeneous("S1", SGI_ORIGIN_2000, 16)


@pytest.fixture
def small_resource() -> ResourceModel:
    """A 4-node SGIOrigin2000 resource for fast scheduling tests."""
    return ResourceModel.homogeneous("small", SGI_ORIGIN_2000, 4)


@pytest.fixture
def slow_resource() -> ResourceModel:
    """A 4-node SPARCstation2 resource (the slowest platform)."""
    return ResourceModel.homogeneous("slow", SUN_SPARC_STATION_2, 4)


@pytest.fixture
def specs():
    """The seven paper applications with deadline bounds."""
    return paper_application_specs()


@pytest.fixture
def apps():
    """The seven paper application models."""
    return paper_applications()


@pytest.fixture
def make_request(specs, sim):
    """Factory for TEST-environment requests against the paper apps."""

    def factory(
        app: str = "sweep3d",
        deadline_offset: float = 100.0,
        submit_time: float | None = None,
    ) -> TaskRequest:
        t = sim.now if submit_time is None else submit_time
        return TaskRequest(
            application=specs[app].model,
            environment=Environment.TEST,
            deadline=t + deadline_offset,
            submit_time=t,
        )

    return factory
