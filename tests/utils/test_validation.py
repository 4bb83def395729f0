"""Tests for the validation helpers."""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.utils.validation import (
    check_non_empty,
    check_non_negative,
    check_positive,
    check_unique,
)


class TestNumericChecks:
    def test_positive(self):
        assert check_positive(1.5, "x") == 1.5
        with pytest.raises(ValidationError):
            check_positive(0, "x")

    def test_non_negative(self):
        assert check_non_negative(0, "x") == 0
        with pytest.raises(ValidationError):
            check_non_negative(-0.1, "x")


class TestStructuralChecks:
    def test_non_empty(self):
        assert check_non_empty([1], "xs") == [1]
        with pytest.raises(ValidationError):
            check_non_empty([], "xs")

    def test_unique_ok(self):
        check_unique([1, 2, 3], "xs")

    def test_unique_fail(self):
        with pytest.raises(ValidationError, match="duplicate"):
            check_unique([1, 2, 1], "xs")
