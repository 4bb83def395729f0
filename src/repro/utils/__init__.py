"""Shared utilities: seeded RNG streams, statistics, tables, time formatting."""
