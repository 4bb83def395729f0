"""Structural application models — PACE's layered model language, in miniature.

Real PACE models are written in CHIP³S: an application layer composed of
*software objects* whose control flow invokes computation and communication
steps, evaluated against a hardware layer.  This module implements the same
idea at the granularity the schedulers need: an application is a sequence of
:class:`Step` objects; the evaluation walks the steps against a
:class:`~repro.pace.hardware.PlatformSpec`'s micro-benchmarks (flop rate,
network latency/bandwidth) and sums predicted seconds.

Structural models matter for this reproduction in two ways:

* they demonstrate the full PACE pipeline (application tools → application
  model; resource tools → resource model; evaluation engine combines both,
  Fig. 1), rather than only replaying Table 1;
* they generate *new* applications with realistic speedup shapes for the
  extension experiments (scalability and accuracy ablations).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.errors import ModelError
from repro.pace.application import ApplicationModel
from repro.pace.hardware import PlatformSpec
from repro.utils.validation import check_non_negative, check_positive

__all__ = [
    "Step",
    "SerialCompute",
    "ParallelCompute",
    "Broadcast",
    "Exchange",
    "Reduction",
    "StructuralModel",
]


class Step(ABC):
    """One stage of a structural application model."""

    @abstractmethod
    def time(self, nproc: int, platform: PlatformSpec) -> float:
        """Predicted seconds this step contributes on *nproc* nodes."""


@dataclass(frozen=True)
class SerialCompute(Step):
    """A non-parallelisable computation of ``mflop`` Mflop (Amdahl's serial term)."""

    mflop: float

    def __post_init__(self) -> None:
        check_non_negative(self.mflop, "mflop")

    def time(self, nproc: int, platform: PlatformSpec) -> float:
        return self.mflop / platform.flop_rate


@dataclass(frozen=True)
class ParallelCompute(Step):
    """A perfectly divisible computation of ``mflop`` Mflop split over nodes.

    ``efficiency`` < 1 models imperfect strong scaling: the per-node share
    is inflated by ``(1/efficiency)**(nproc-1 over ...)`` — we use the common
    PACE-style formulation of a per-doubling efficiency loss.
    """

    mflop: float
    efficiency: float = 1.0

    def __post_init__(self) -> None:
        check_non_negative(self.mflop, "mflop")
        if not (0.0 < self.efficiency <= 1.0):
            raise ModelError(f"efficiency must be in (0, 1], got {self.efficiency}")

    def time(self, nproc: int, platform: PlatformSpec) -> float:
        effective_nodes = nproc ** self.efficiency if nproc > 1 else 1.0
        return self.mflop / (platform.flop_rate * effective_nodes)


@dataclass(frozen=True)
class Broadcast(Step):
    """Root broadcasts ``mbytes`` to all other nodes (binomial tree: ⌈log2 n⌉ rounds)."""

    mbytes: float

    def __post_init__(self) -> None:
        check_non_negative(self.mbytes, "mbytes")

    def time(self, nproc: int, platform: PlatformSpec) -> float:
        if nproc <= 1:
            return 0.0
        rounds = (nproc - 1).bit_length()
        per_round = platform.network_latency + self.mbytes / platform.network_bandwidth
        return rounds * per_round


@dataclass(frozen=True)
class Exchange(Step):
    """Nearest-neighbour halo exchange: each node sends/receives ``mbytes``.

    ``neighbours`` is the number of exchange partners per node (2 for a 1-D
    decomposition, 4 for 2-D, ...).  Cost is charged once — exchanges
    proceed concurrently across the machine.
    """

    mbytes: float
    neighbours: int = 2

    def __post_init__(self) -> None:
        check_non_negative(self.mbytes, "mbytes")
        check_positive(self.neighbours, "neighbours")

    def time(self, nproc: int, platform: PlatformSpec) -> float:
        if nproc <= 1:
            return 0.0
        partners = min(self.neighbours, nproc - 1)
        per_partner = platform.network_latency + self.mbytes / platform.network_bandwidth
        return partners * per_partner


@dataclass(frozen=True)
class Reduction(Step):
    """All-to-root reduction of ``mbytes`` (binomial tree, like Broadcast)."""

    mbytes: float

    def __post_init__(self) -> None:
        check_non_negative(self.mbytes, "mbytes")

    def time(self, nproc: int, platform: PlatformSpec) -> float:
        if nproc <= 1:
            return 0.0
        rounds = (nproc - 1).bit_length()
        per_round = platform.network_latency + self.mbytes / platform.network_bandwidth
        return rounds * per_round


class StructuralModel(ApplicationModel):
    """An application model composed of computation/communication steps.

    Parameters
    ----------
    name:
        Application name.
    steps:
        The stages executed once per run.
    iterations:
        Number of times the step sequence repeats (e.g. solver sweeps).

    Examples
    --------
    >>> from repro.pace.hardware import SGI_ORIGIN_2000
    >>> model = StructuralModel(
    ...     "jacobi-like",
    ...     steps=[ParallelCompute(mflop=16000.0), Exchange(mbytes=1.0)],
    ...     iterations=10,
    ... )
    >>> t1 = model.predict(1, SGI_ORIGIN_2000)
    >>> t8 = model.predict(8, SGI_ORIGIN_2000)
    >>> t8 < t1
    True
    """

    def __init__(self, name: str, steps: Sequence[Step], *, iterations: int = 1) -> None:
        super().__init__(name)
        if len(steps) == 0:
            raise ModelError("steps must not be empty")
        if iterations < 1:
            raise ModelError(f"iterations must be >= 1, got {iterations}")
        self._steps: Tuple[Step, ...] = tuple(steps)
        self._iterations = int(iterations)

    def predict(self, nproc: int, platform: PlatformSpec) -> float:
        self._check_nproc(nproc)
        per_iteration = sum(step.time(nproc, platform) for step in self._steps)
        total = per_iteration * self._iterations
        if total <= 0:
            raise ModelError(
                f"structural model {self._name!r} predicts non-positive time {total}"
            )
        return total
