"""Discrete-event simulation substrate (virtual-time test mode, §4.1)."""

from repro.sim.engine import Engine
from repro.sim.events import Event, EventHandle, Priority
from repro.sim.process import PeriodicProcess, delayed
from repro.sim.reference import SingleHeapEngine

__all__ = [
    "Engine",
    "Event",
    "EventHandle",
    "Priority",
    "PeriodicProcess",
    "SingleHeapEngine",
    "delayed",
]
