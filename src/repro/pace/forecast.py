"""Resource-load forecasting — the NWS-substitute extension.

The paper's future work proposes integrating the agents "with other grid
toolkits (e.g. Globus MDS and NWS) to provide more extensible information
support".  The Network Weather Service [Wolski et al., 1999] forecasts a
resource's load by running a *family* of simple predictors over the
measurement history and, at each step, trusting whichever predictor has
the lowest recent error.  This module implements that design:

* :class:`LastValue`, :class:`RunningMean`, :class:`SlidingWindowMean`,
  :class:`ExponentialSmoothing`, :class:`MedianWindow` — the classic NWS
  predictor family;
* :class:`AdaptiveForecaster` — NWS's meta-predictor: feed it a measurement
  stream, it tracks every member's mean absolute error and forecasts with
  the current winner;
* :class:`LoadTracker` — glue for the schedulers: converts a stream of
  background-load samples into a *slowdown factor* a PACE prediction can be
  scaled by (a host at load ℓ runs a compute-bound task ≈ (1 + ℓ)× slower).

The paper's own experiments assume static resource information (§1), so
nothing in the §4 reproduction depends on this module; it powers the
forecasting extension bench and example.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence

from repro.errors import ValidationError

__all__ = [
    "Predictor",
    "LastValue",
    "RunningMean",
    "SlidingWindowMean",
    "MedianWindow",
    "ExponentialSmoothing",
    "AdaptiveForecaster",
    "LoadTracker",
    "default_predictor_family",
]


class Predictor(ABC):
    """An online one-step-ahead predictor of a scalar series."""

    #: Display name used in reports.
    name: str = "predictor"

    @abstractmethod
    def update(self, value: float) -> None:
        """Feed one observed measurement."""

    @abstractmethod
    def forecast(self) -> Optional[float]:
        """The one-step-ahead prediction, or ``None`` before any data."""


class LastValue(Predictor):
    """Predict the next value to equal the last observed one."""

    name = "last-value"

    def __init__(self) -> None:
        self._last: Optional[float] = None

    def update(self, value: float) -> None:
        self._last = float(value)

    def forecast(self) -> Optional[float]:
        return self._last


class RunningMean(Predictor):
    """Predict the mean of the entire history."""

    name = "running-mean"

    def __init__(self) -> None:
        self._sum = 0.0
        self._count = 0

    def update(self, value: float) -> None:
        self._sum += float(value)
        self._count += 1

    def forecast(self) -> Optional[float]:
        if self._count == 0:
            return None
        return self._sum / self._count


class SlidingWindowMean(Predictor):
    """Predict the mean of the last *window* observations."""

    def __init__(self, window: int = 10) -> None:
        if window < 1:
            raise ValidationError(f"window must be >= 1, got {window}")
        self.name = f"window-mean({window})"
        self._window: Deque[float] = deque(maxlen=window)

    def update(self, value: float) -> None:
        self._window.append(float(value))

    def forecast(self) -> Optional[float]:
        if not self._window:
            return None
        return sum(self._window) / len(self._window)


class MedianWindow(Predictor):
    """Predict the median of the last *window* observations (spike-robust)."""

    def __init__(self, window: int = 10) -> None:
        if window < 1:
            raise ValidationError(f"window must be >= 1, got {window}")
        self.name = f"window-median({window})"
        self._window: Deque[float] = deque(maxlen=window)

    def update(self, value: float) -> None:
        self._window.append(float(value))

    def forecast(self) -> Optional[float]:
        if not self._window:
            return None
        ordered = sorted(self._window)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return 0.5 * (ordered[mid - 1] + ordered[mid])


class ExponentialSmoothing(Predictor):
    """``s ← α·x + (1 − α)·s`` — NWS's workhorse for drifting series."""

    def __init__(self, alpha: float = 0.3) -> None:
        if not (0.0 < alpha <= 1.0):
            raise ValidationError(f"alpha must be in (0, 1], got {alpha}")
        self.name = f"exp-smoothing({alpha})"
        self._alpha = alpha
        self._state: Optional[float] = None

    def update(self, value: float) -> None:
        if self._state is None:
            self._state = float(value)
        else:
            self._state = self._alpha * float(value) + (1 - self._alpha) * self._state

    def forecast(self) -> Optional[float]:
        return self._state


def default_predictor_family() -> List[Predictor]:
    """The NWS-style default family."""
    return [
        LastValue(),
        RunningMean(),
        SlidingWindowMean(5),
        SlidingWindowMean(20),
        MedianWindow(9),
        ExponentialSmoothing(0.2),
        ExponentialSmoothing(0.5),
    ]


class AdaptiveForecaster:
    """NWS's meta-predictor: trust the family member with the lowest error.

    Each incoming measurement first scores every member (absolute error of
    its standing forecast against the new truth, exponentially discounted
    by *error_decay*), then updates it.  :meth:`forecast` delegates to the
    current lowest-error member.
    """

    def __init__(
        self,
        predictors: Optional[Sequence[Predictor]] = None,
        *,
        error_decay: float = 0.9,
    ) -> None:
        if not (0.0 < error_decay <= 1.0):
            raise ValidationError(f"error_decay must be in (0, 1], got {error_decay}")
        self._predictors = list(predictors) if predictors is not None else default_predictor_family()
        if not self._predictors:
            raise ValidationError("predictor family must not be empty")
        self._errors: Dict[str, float] = {p.name: 0.0 for p in self._predictors}
        self._decay = error_decay
        self._observations = 0

    @property
    def observations(self) -> int:
        """Number of measurements consumed."""
        return self._observations

    def errors(self) -> Dict[str, float]:
        """Current discounted mean absolute error per member (copy)."""
        return dict(self._errors)

    def best_name(self) -> str:
        """Name of the member currently trusted."""
        return min(self._errors.items(), key=lambda kv: (kv[1], kv[0]))[0]

    def update(self, value: float) -> None:
        """Score every member against *value*, then feed it to all."""
        value = float(value)
        for predictor in self._predictors:
            standing = predictor.forecast()
            if standing is not None:
                err = abs(standing - value)
                self._errors[predictor.name] = (
                    self._decay * self._errors[predictor.name]
                    + (1 - self._decay) * err
                )
            predictor.update(value)
        self._observations += 1

    def forecast(self) -> Optional[float]:
        """One-step-ahead forecast from the current best member."""
        if self._observations == 0:
            return None
        best = self.best_name()
        for predictor in self._predictors:
            if predictor.name == best:
                return predictor.forecast()
        raise AssertionError("best member vanished")  # pragma: no cover


class LoadTracker:
    """Tracks one host's background load and yields a slowdown forecast.

    A compute-bound task sharing a host with background load ℓ (runnable
    processes) runs ≈ ``1 + ℓ`` times slower; :meth:`slowdown` returns
    that factor from the adaptive forecast, clamped below at 1.0.
    """

    def __init__(self, forecaster: Optional[AdaptiveForecaster] = None) -> None:
        self._forecaster = forecaster if forecaster is not None else AdaptiveForecaster()
        self._samples = 0

    def observe(self, load: float) -> None:
        """Record one load-average sample (must be >= 0)."""
        if load < 0:
            raise ValidationError(f"load must be >= 0, got {load}")
        self._forecaster.update(load)
        self._samples += 1

    def forecast_load(self) -> float:
        """Predicted next load; 0 before any samples."""
        value = self._forecaster.forecast()
        return max(float(value), 0.0) if value is not None else 0.0

    def slowdown(self) -> float:
        """Predicted execution-time multiplier (>= 1)."""
        return 1.0 + self.forecast_load()
