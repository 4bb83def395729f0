"""Small argument-validation helpers shared across the library.

These exist so that public API entry points fail fast with a uniform
:class:`~repro.errors.ValidationError` instead of leaking ``TypeError`` /
``IndexError`` from deep inside the schedulers.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.errors import ValidationError

__all__ = [
    "check_positive",
    "check_non_negative",
    "check_non_empty",
    "check_unique",
]


def check_positive(value: float, name: str) -> float:
    """Validate that *value* is strictly positive; return it."""
    if not value > 0:
        raise ValidationError(f"{name} must be > 0, got {value!r}")
    return value


def check_non_negative(value: float, name: str) -> float:
    """Validate that *value* is >= 0; return it."""
    if value < 0:
        raise ValidationError(f"{name} must be >= 0, got {value!r}")
    return value


def check_non_empty(value: Sequence | dict, name: str) -> Any:
    """Validate that a sequence or mapping is non-empty; return it."""
    if len(value) == 0:
        raise ValidationError(f"{name} must not be empty")
    return value


def check_unique(values: Iterable[Any], name: str) -> None:
    """Validate that *values* contains no duplicates."""
    seen = set()
    for v in values:
        if v in seen:
            raise ValidationError(f"{name} contains duplicate element {v!r}")
        seen.add(v)
