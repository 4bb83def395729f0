"""Discrete-event simulation substrate (virtual-time test mode, §4.1)."""

from repro.sim.engine import Engine
from repro.sim.events import Event, Priority
from repro.sim.process import PeriodicProcess
from repro.sim.reference import SingleHeapEngine

__all__ = [
    "Engine",
    "Event",
    "Priority",
    "PeriodicProcess",
    "SingleHeapEngine",
]
