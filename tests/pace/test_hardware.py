"""Tests for the hardware catalogue."""

from __future__ import annotations

import pytest

from repro.errors import ModelError
from repro.pace.hardware import (
    DEFAULT_CATALOGUE,
    SGI_ORIGIN_2000,
    SUN_SPARC_STATION_2,
    SUN_ULTRA_1,
    SUN_ULTRA_5,
    SUN_ULTRA_10,
    HardwareCatalogue,
    PlatformSpec,
)
from tests.oracles import scale


class TestPlatformSpec:
    def test_scale(self):
        assert scale(SUN_ULTRA_10, 10.0) == 20.0
        assert scale(SGI_ORIGIN_2000, 10.0) == 10.0

    def test_empty_name_rejected(self):
        with pytest.raises(ModelError):
            PlatformSpec(name="", speed_factor=1.0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("speed_factor", 0.0),
            ("flop_rate", -1.0),
            ("network_latency", 0.0),
            ("network_bandwidth", 0.0),
        ],
    )
    def test_non_positive_parameters_rejected(self, field, value):
        kwargs = dict(name="X", speed_factor=1.0)
        kwargs[field] = value
        with pytest.raises(Exception):
            PlatformSpec(**kwargs)


class TestPaperOrdering:
    def test_five_platforms_present(self):
        assert len(DEFAULT_CATALOGUE) == 5

    def test_performance_ordering(self):
        # §4.1: SGI fastest, then Ultra 10, 5, 1, SPARCstation 2.
        factors = [
            SGI_ORIGIN_2000.speed_factor,
            SUN_ULTRA_10.speed_factor,
            SUN_ULTRA_5.speed_factor,
            SUN_ULTRA_1.speed_factor,
            SUN_SPARC_STATION_2.speed_factor,
        ]
        assert factors == sorted(factors)
        assert len(set(factors)) == 5  # strictly ordered

    def test_sgi_is_baseline(self):
        assert SGI_ORIGIN_2000.speed_factor == 1.0


class TestCatalogue:
    def test_get_known(self):
        assert DEFAULT_CATALOGUE.get("SunUltra5") is SUN_ULTRA_5

    def test_get_unknown_rejected(self):
        with pytest.raises(ModelError, match="unknown platform"):
            DEFAULT_CATALOGUE.get("Cray")

    def test_contains(self):
        assert "SGIOrigin2000" in DEFAULT_CATALOGUE
        assert "Cray" not in DEFAULT_CATALOGUE

    def test_register_idempotent_for_identical(self):
        cat = HardwareCatalogue()
        cat.register(SGI_ORIGIN_2000)
        cat.register(SGI_ORIGIN_2000)
        assert len(cat) == 1

    def test_register_conflicting_rejected(self):
        cat = HardwareCatalogue()
        cat.register(PlatformSpec(name="X", speed_factor=1.0))
        with pytest.raises(ModelError, match="already registered"):
            cat.register(PlatformSpec(name="X", speed_factor=2.0))

    def test_names_sorted(self):
        assert DEFAULT_CATALOGUE.names() == sorted(DEFAULT_CATALOGUE.names())
