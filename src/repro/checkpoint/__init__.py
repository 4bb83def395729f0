"""Deterministic checkpoint/restore fabric.

A checkpoint captures every piece of mutable run state — the event heap,
RNG stream positions, scheduler queues and bookings, agent registries,
in-flight messages, portal timers, and the experiment driver's own
progress — as one versioned, checksummed snapshot file.  Restoring
rebuilds the grid from its :class:`~repro.experiments.config.ExperimentConfig`
and rewinds every component, after which the run continues **byte-identical**
to an uninterrupted one: same completion records, same metrics, same golden
trace, same final RNG digest.

See ``docs/checkpointing.md`` for the format and guarantees.
"""
