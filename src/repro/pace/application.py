"""Application models σ — the application-tool side of the PACE stand-in.

A PACE application model captures how one parallel program's execution time
varies with the number of processors and the hardware it runs on (eq. 4's
σ_j).  The evaluation engine (eq. 6's ``t_x``) combines an application model
with a resource model to predict execution time.

Three families of model are provided:

* :class:`TabulatedModel` (here) — a measured/published execution-time curve
  on a baseline platform, scaled to other platforms by their speed factor.
  The paper's Table 1 data is expressed this way.
* structural models (:mod:`repro.pace.structural`) — computation and
  communication step counts walked against a platform's micro-benchmarks,
  in the spirit of PACE's layered CHIP³S models.
* parametric models (:mod:`repro.pace.parametric`) — closed-form speedup
  curves (Amdahl, communication-overhead, V-shaped) fitted to data.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from repro.errors import ModelError
from repro.pace.hardware import PlatformSpec

__all__ = ["ApplicationModel", "TabulatedModel"]


class ApplicationModel(ABC):
    """Abstract PACE application performance model.

    Subclasses implement :meth:`predict`, mapping a processor count and a
    platform to a predicted execution time in seconds.  Models must be
    deterministic and side-effect free: the evaluation cache (§2.2) assumes
    ``predict`` is a pure function of ``(model, nproc, platform)``.
    """

    def __init__(self, name: str) -> None:
        if not name:
            raise ModelError("application model name must be non-empty")
        self._name = name

    @property
    def name(self) -> str:
        """The application's name (e.g. ``"sweep3d"``)."""
        return self._name

    @abstractmethod
    def predict(self, nproc: int, platform: PlatformSpec) -> float:
        """Predicted execution time in seconds on *nproc* nodes of *platform*.

        Raises
        ------
        ModelError
            If *nproc* is not a positive integer.
        """

    def _check_nproc(self, nproc: int) -> int:
        if not isinstance(nproc, (int,)) or isinstance(nproc, bool) or nproc < 1:
            raise ModelError(f"nproc must be a positive integer, got {nproc!r}")
        return nproc


class TabulatedModel(ApplicationModel):
    """An application model defined by a measured curve on a baseline platform.

    Parameters
    ----------
    name:
        Application name.
    baseline_times:
        Execution times in seconds for 1..len(baseline_times) processors on
        the *baseline platform* (the paper's SGIOrigin2000 column of
        Table 1).
    baseline_platform_name:
        Name of the platform the curve was measured on.  Predictions on
        another platform scale the curve by the ratio of speed factors.
    clamp:
        If true (default), requests beyond the profiled processor count
        return the last profiled value — the paper notes that for sweep3d
        "when the number of processors is more than 16, the run time does
        not improve any further".  If false, such requests raise.

    Notes
    -----
    The baseline platform is recorded by *name* with speed factor 1.0
    assumed; Table 1's SGIOrigin2000 has speed factor 1.0 in the default
    catalogue, so scaling to platform *p* multiplies by ``p.speed_factor``.
    """

    def __init__(
        self,
        name: str,
        baseline_times: Sequence[float],
        *,
        baseline_platform_name: str = "SGIOrigin2000",
        baseline_speed_factor: float = 1.0,
        clamp: bool = True,
    ) -> None:
        super().__init__(name)
        if len(baseline_times) == 0:
            raise ModelError("baseline_times must not be empty")
        times = tuple(float(t) for t in baseline_times)
        if any(t <= 0 for t in times):
            raise ModelError("baseline times must all be > 0")
        if baseline_speed_factor <= 0:
            raise ModelError("baseline_speed_factor must be > 0")
        self._times = times
        self._baseline_platform_name = baseline_platform_name
        self._baseline_speed_factor = float(baseline_speed_factor)
        self._clamp = clamp

    def predict(self, nproc: int, platform: PlatformSpec) -> float:
        self._check_nproc(nproc)
        if nproc > len(self._times):
            if not self._clamp:
                raise ModelError(
                    f"{self._name!r} profiled to {len(self._times)} processors, "
                    f"requested {nproc} with clamp disabled"
                )
            nproc = len(self._times)
        base = self._times[nproc - 1]
        return base * platform.speed_factor / self._baseline_speed_factor
