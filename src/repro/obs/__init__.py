"""Deterministic tracing, metrics, span trees, and invariant checking.

The observability layer makes the repro's *decision stream* a first-class
artifact: every discovery hop, GA evolve call, dispatch, drop, and retry
is a typed record stamped with virtual time only, so a trace is a pure
function of ``(configuration, master seed)``.  See docs/observability.md.
"""
