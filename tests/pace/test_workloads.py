"""Tests for the seven case-study applications (Table 1)."""

from __future__ import annotations

import pytest

from repro.pace.evaluation import EvaluationEngine
from repro.pace.hardware import SGI_ORIGIN_2000
from repro.pace.workloads import (
    APPLICATION_NAMES,
    TABLE1_DEADLINE_BOUNDS,
    TABLE1_TIMES,
    paper_application_specs,
    paper_applications,
)
from tests.oracles import fitted_paper_models, spec_name


class TestTable1Data:
    def test_seven_applications(self):
        assert len(APPLICATION_NAMES) == 7
        assert set(TABLE1_TIMES) == set(APPLICATION_NAMES)
        assert set(TABLE1_DEADLINE_BOUNDS) == set(APPLICATION_NAMES)

    def test_sixteen_columns_each(self):
        for name, times in TABLE1_TIMES.items():
            assert len(times) == 16, name

    def test_sweep3d_flattens_at_16(self):
        # "when the number of processors is more than 16, the run time does
        # not improve any further" — the published curve ends flat.
        times = TABLE1_TIMES["sweep3d"]
        assert times[14] == times[15] == 4

    def test_improc_optimum_at_8(self):
        times = TABLE1_TIMES["improc"]
        assert min(times) == times[7] == times[8] == 20

    def test_cpi_optimum_at_12(self):
        times = TABLE1_TIMES["cpi"]
        assert min(times) == times[11] == 2

    def test_monotone_apps(self):
        for name in ("sweep3d", "fft", "jacobi", "closure"):
            times = TABLE1_TIMES[name]
            assert all(a >= b for a, b in zip(times, times[1:])), name


class TestPaperApplications:
    def test_models_reproduce_table1(self):
        engine = EvaluationEngine()
        for name, model in paper_applications().items():
            for k in range(1, 17):
                assert engine.evaluate_count(model, k, SGI_ORIGIN_2000) == float(
                    TABLE1_TIMES[name][k - 1]
                ), (name, k)

    def test_fresh_instances(self):
        assert (
            paper_applications()["fft"] is not paper_applications()["fft"]
        )

    def test_specs_carry_bounds(self):
        specs = paper_application_specs()
        assert specs["sweep3d"].deadline_bounds == (4, 200)
        assert specs["closure"].deadline_bounds == (2, 36)
        assert spec_name(specs["cpi"]) == "cpi"


class TestFittedModels:
    def test_all_applications_fitted(self):
        fits = fitted_paper_models()
        assert set(fits) == set(APPLICATION_NAMES)

    def test_fft_is_exact(self):
        assert fitted_paper_models()["fft"].rmse < 1e-9

    def test_fits_preserve_shape(self):
        """Fitted curves preserve monotone-vs-V-shaped classification."""
        fits = fitted_paper_models()
        for name in APPLICATION_NAMES:
            times = [
                fits[name].model.predict(k, SGI_ORIGIN_2000) for k in range(1, 17)
            ]
            published = TABLE1_TIMES[name]
            published_v = published.index(min(published)) < 13
            fitted_v = times.index(min(times)) < 13
            if name in ("improc", "memsort", "cpi"):
                assert published_v and fitted_v, name
