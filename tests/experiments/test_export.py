"""Tests for JSON/CSV export of experiment results."""

from __future__ import annotations

import csv
import io
import json

import pytest

from repro.errors import ValidationError
from repro.experiments.export import (
    result_to_dict,
    results_to_json,
    table3_to_csv,
)
from repro.experiments.tables import run_table3


@pytest.fixture(scope="module")
def results():
    return run_table3(request_count=12)


class TestJson:
    def test_round_trips_through_json(self, results):
        parsed = json.loads(results_to_json(results))
        assert len(parsed) == 3
        assert parsed[0]["experiment"] == "experiment-1"
        assert parsed[0]["policy"] == "fifo"
        assert parsed[2]["agents_enabled"] is True

    def test_metrics_structure(self, results):
        doc = result_to_dict(results[2])
        metrics = doc["metrics"]
        assert set(metrics["per_resource"]) == {f"S{i}" for i in range(1, 13)}
        total = metrics["total"]
        assert total["tasks"] == 12
        assert 0 <= total["upsilon_percent"] <= 100

    def test_nan_becomes_null(self, results):
        # At 12 requests some resources execute nothing -> ε is NaN -> null.
        doc = json.loads(results_to_json(results))
        values = [
            row["epsilon_seconds"]
            for row in doc[0]["metrics"]["per_resource"].values()
        ]
        assert None in values or all(v is not None for v in values)
        # Regardless, the document must be valid JSON (no bare NaN).
        assert "NaN" not in results_to_json(results)

    def test_agent_stats_present(self, results):
        doc = result_to_dict(results[2])
        assert sum(s["forwarded"] for s in doc["agent_stats"].values()) >= 0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            results_to_json([])


class TestCsv:
    def test_table3_csv_shape(self, results):
        text = table3_to_csv(results)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0][0] == "resource"
        assert len(rows[0]) == 1 + 3 * 3
        assert rows[-1][0] == "Total"
        assert len(rows) == 1 + 12 + 1

    def test_table3_csv_values_match_metrics(self, results):
        text = table3_to_csv(results)
        rows = {r[0]: r for r in csv.reader(io.StringIO(text))}
        s1 = results[0].metrics.resource("S1")
        if s1.epsilon == s1.epsilon:  # not NaN
            assert float(rows["S1"][1]) == pytest.approx(s1.epsilon, abs=1e-3)
        assert float(rows["S1"][2]) == pytest.approx(s1.upsilon_percent, abs=1e-3)
