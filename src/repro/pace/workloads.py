"""The paper's seven case-study applications (Table 1).

Table 1 publishes each application's PACE-predicted execution times on
1..16 SGIOrigin2000 processors together with the bounds of the deadline
domain users draw from (shown as ``app [low, high]``).  The data below is
transcribed verbatim; predictions for the other platforms "follow a similar
trend" and are derived by the platform speed factors (see DESIGN.md §4).

The three curve shapes the paper calls out are all present:

* sweep3d/jacobi — strong scaling that flattens toward 16 processors;
* fft/closure — slow near-linear improvement;
* improc (optimum at 8), memsort (8–9), cpi (12) — V-shaped curves where
  adding processors past the optimum *hurts*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from repro.errors import ModelError
from repro.pace.application import ApplicationModel, TabulatedModel

__all__ = [
    "ApplicationSpec",
    "TABLE1_TIMES",
    "TABLE1_DEADLINE_BOUNDS",
    "APPLICATION_NAMES",
    "paper_applications",
    "paper_application_specs",
]

#: Table 1 execution times (seconds) on 1..16 SGIOrigin2000 processors.
TABLE1_TIMES: Mapping[str, Tuple[float, ...]] = {
    "sweep3d": (50, 40, 30, 25, 23, 20, 17, 15, 13, 11, 9, 7, 6, 5, 4, 4),
    "fft": (25, 24, 23, 22, 21, 20, 19, 18, 17, 16, 15, 14, 13, 12, 11, 10),
    "improc": (48, 41, 35, 30, 26, 23, 21, 20, 20, 21, 23, 26, 30, 35, 41, 48),
    "closure": (9, 9, 8, 8, 7, 7, 6, 6, 5, 5, 4, 4, 3, 3, 2, 2),
    "jacobi": (40, 35, 30, 25, 23, 20, 17, 15, 13, 11, 10, 9, 8, 7, 6, 6),
    "memsort": (17, 16, 15, 14, 13, 12, 11, 10, 10, 11, 12, 13, 14, 15, 16, 17),
    "cpi": (32, 26, 21, 17, 14, 11, 9, 7, 5, 4, 3, 2, 4, 7, 12, 20),
}

#: Table 1 deadline-domain bounds ``[low, high]`` in seconds; §4.1: "The
#: required execution time deadline for the application is also selected
#: randomly from a given domain."
TABLE1_DEADLINE_BOUNDS: Mapping[str, Tuple[float, float]] = {
    "sweep3d": (4, 200),
    "fft": (10, 100),
    "improc": (20, 192),
    "closure": (2, 36),
    "jacobi": (6, 160),
    "memsort": (10, 68),
    "cpi": (2, 128),
}

#: The seven applications in Table 1's row order.
APPLICATION_NAMES: Tuple[str, ...] = (
    "sweep3d",
    "fft",
    "improc",
    "closure",
    "jacobi",
    "memsort",
    "cpi",
)


@dataclass(frozen=True)
class ApplicationSpec:
    """An application model paired with its user deadline domain.

    ``deadline_bounds`` is the ``[low, high]`` interval (seconds, relative
    to submission) users draw deadlines from in the case study.
    """

    model: ApplicationModel
    deadline_bounds: Tuple[float, float]

    def __post_init__(self) -> None:
        low, high = self.deadline_bounds
        if not (0 < low <= high):
            raise ModelError(
                f"deadline bounds must satisfy 0 < low <= high, got {self.deadline_bounds}"
            )


def paper_applications() -> Dict[str, TabulatedModel]:
    """The seven Table 1 applications as tabulated models (fresh instances)."""
    return {
        name: TabulatedModel(name, TABLE1_TIMES[name])
        for name in APPLICATION_NAMES
    }


def paper_application_specs() -> Dict[str, ApplicationSpec]:
    """The seven applications paired with their deadline domains."""
    models = paper_applications()
    return {
        name: ApplicationSpec(models[name], TABLE1_DEADLINE_BOUNDS[name])
        for name in APPLICATION_NAMES
    }
