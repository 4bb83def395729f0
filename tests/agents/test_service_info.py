"""Tests for service-information records."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import ValidationError
from repro.net.message import Endpoint
from repro.net.payloads import ServiceInfo
from repro.tasks.task import Environment


@pytest.fixture
def info():
    return ServiceInfo(
        agent_endpoint=Endpoint("s3.grid", 1002),
        scheduler_endpoint=Endpoint("s3.grid", 10002),
        hardware_type="SunUltra10",
        nproc=16,
        environments=(Environment.MPI, Environment.TEST),
        freetime=45.0,
    )


class TestServiceInfo:
    def test_supports(self, info):
        assert info.supports(Environment.MPI)
        assert not info.supports(Environment.PVM)

    def test_with_freetime(self, info):
        updated = info.with_freetime(99.0)
        assert updated.freetime == 99.0
        assert updated.hardware_type == info.hardware_type
        assert info.freetime == 45.0

    def test_with_freetime_is_the_record_the_constructor_builds(self, info):
        """The copy skips re-validation but not equality, hashing or repr."""
        updated = info.with_freetime(99.5)
        built = ServiceInfo(
            info.agent_endpoint, info.scheduler_endpoint, info.hardware_type,
            info.nproc, info.environments, 99.5,
        )
        assert type(updated) is ServiceInfo
        assert updated == built
        assert hash(updated) == hash(built)
        assert repr(updated) == repr(built)
        assert updated != info
        with pytest.raises(dataclasses.FrozenInstanceError):
            updated.freetime = 1.0  # type: ignore[misc]

    def test_validation(self):
        with pytest.raises(ValidationError):
            ServiceInfo(
                Endpoint("a", 1), Endpoint("a", 2), "", 16,
                (Environment.TEST,), 0.0,
            )
        with pytest.raises(ValidationError):
            ServiceInfo(
                Endpoint("a", 1), Endpoint("a", 2), "X", 0,
                (Environment.TEST,), 0.0,
            )
        with pytest.raises(ValidationError):
            ServiceInfo(
                Endpoint("a", 1), Endpoint("a", 2), "X", 16, (), 0.0
            )


class TestXmlRoundTrip:
    def test_round_trip(self, info):
        restored = ServiceInfo.from_xml(info.to_xml())
        assert restored.agent_endpoint == info.agent_endpoint
        assert restored.scheduler_endpoint == info.scheduler_endpoint
        assert restored.hardware_type == info.hardware_type
        assert restored.nproc == info.nproc
        assert restored.environments == info.environments
        assert restored.freetime == info.freetime

    def test_freetime_second_granularity(self, info):
        # ctime timestamps carry whole seconds; fractional parts truncate.
        fractional = info.with_freetime(45.7)
        restored = ServiceInfo.from_xml(fractional.to_xml())
        assert restored.freetime == 45.0
