"""Shared utilities: seeded RNG streams, statistics, tables, time formatting."""

from repro.utils.rng import RngRegistry, derive_seed, stream
from repro.utils.stats import (
    balance_level,
    mean,
    mean_square_deviation,
    relative_deviation,
)
from repro.utils.tables import format_cell, render_table
from repro.utils.timefmt import EPOCH, format_duration, format_timestamp, parse_timestamp

__all__ = [
    "RngRegistry",
    "derive_seed",
    "stream",
    "balance_level",
    "mean",
    "mean_square_deviation",
    "relative_deviation",
    "format_cell",
    "render_table",
    "EPOCH",
    "format_duration",
    "format_timestamp",
    "parse_timestamp",
]
