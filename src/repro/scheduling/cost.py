"""The combined cost function of eq. (8).

"A combined cost function is used which considers makespan, idle time and
deadline. ... Solutions that have large idle times are penalised by
weighting pockets of idle time ... which penalises early idle time more
than later idle time.  The contract penalty θ_k is derived from the
expected deadline times δ and task completion time η."

The combined value is::

    f_c = (W_m·ω_k + W_i·φ_k + W_c·θ_k) / (W_m + W_i + W_c)

with ω_k the (relative) makespan, φ_k the weighted idle time and θ_k the
total deadline overrun.  The idle-weighting function is pluggable; the
default linear decay gives a pocket ``[a, b)`` weight ``∫_a^b (1 − t/ω) dt``
measured from the schedule's reference time, so idle time at the very front
of the schedule counts fully and idle time near the makespan counts ~0 —
exactly the paper's rationale ("idle time at the front of the schedule ...
is the processing time which will be wasted first").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.errors import ValidationError
from repro.scheduling.schedule import Schedule
from repro.utils.validation import check_non_negative

__all__ = [
    "CostWeights",
    "CostBreakdown",
    "linear_idle_weight",
    "exponential_idle_weight",
    "uniform_idle_weight",
    "IDLE_WEIGHTERS",
    "weighted_idle_time",
    "deadline_penalty",
    "schedule_cost",
]

#: An idle weighter maps ``(pocket_start, pocket_end, horizon)`` — all
#: measured relative to the schedule's reference time — to weighted seconds.
IdleWeighter = Callable[[float, float, float], float]


@dataclass(frozen=True)
class CostWeights:
    """The three weights of eq. (8); all non-negative, not all zero."""

    makespan: float = 1.0
    idle: float = 1.0
    deadline: float = 1.0

    def __post_init__(self) -> None:
        check_non_negative(self.makespan, "makespan weight")
        check_non_negative(self.idle, "idle weight")
        check_non_negative(self.deadline, "deadline weight")
        if self.makespan + self.idle + self.deadline == 0:
            raise ValidationError("at least one cost weight must be positive")

    @property
    def total(self) -> float:
        """Normalising denominator ``W_m + W_i + W_c``."""
        return self.makespan + self.idle + self.deadline


@dataclass(frozen=True)
class CostBreakdown:
    """The cost components of one schedule: ω, φ, θ, and the combined f_c."""

    makespan: float
    weighted_idle: float
    deadline_penalty: float
    combined: float


def linear_idle_weight(start: float, end: float, horizon: float) -> float:
    """``∫_start^end max(0, 1 − t/horizon) dt`` — the default front-loading.

    A pocket at the very front weighs its full duration; one ending at the
    horizon weighs about half its duration near the front and 0 at the end.
    """
    if horizon <= 0:
        return 0.0
    a = min(max(start, 0.0), horizon)
    b = min(max(end, 0.0), horizon)
    if b <= a:
        return 0.0
    return (b - a) - (b * b - a * a) / (2.0 * horizon)


def exponential_idle_weight(start: float, end: float, horizon: float) -> float:
    """``∫ exp(−3t/horizon) dt`` — sharper front-loading (ablation variant)."""
    import math

    if horizon <= 0:
        return 0.0
    rate = 3.0 / horizon
    a = min(max(start, 0.0), horizon)
    b = min(max(end, 0.0), horizon)
    if b <= a:
        return 0.0
    return (math.exp(-rate * a) - math.exp(-rate * b)) / rate


def uniform_idle_weight(start: float, end: float, horizon: float) -> float:
    """Unweighted idle seconds within ``[0, horizon]`` (no front-loading)."""
    if horizon <= 0:
        return 0.0
    a = min(max(start, 0.0), horizon)
    b = min(max(end, 0.0), horizon)
    return max(b - a, 0.0)


#: Named idle weighters for configuration and the idle-weighting ablation.
IDLE_WEIGHTERS: Mapping[str, IdleWeighter] = {
    "linear": linear_idle_weight,
    "exponential": exponential_idle_weight,
    "uniform": uniform_idle_weight,
}


def weighted_idle_time(
    schedule: Schedule, weighter: IdleWeighter = linear_idle_weight
) -> float:
    """φ_k: total idle time weighted by front-of-schedule position."""
    horizon = schedule.relative_makespan
    ref = schedule.ref_time
    return sum(
        weighter(p.start - ref, p.end - ref, horizon) for p in schedule.idle_pockets
    )


def deadline_penalty(schedule: Schedule, deadlines: Mapping[int, float]) -> float:
    """θ_k: total overrun ``Σ max(0, η_j − δ_j)`` over scheduled tasks.

    Raises
    ------
    ValidationError
        If a scheduled task has no deadline entry.
    """
    total = 0.0
    for e in schedule.entries:
        try:
            deadline = deadlines[e.task_id]
        except KeyError:
            raise ValidationError(f"no deadline for task {e.task_id}") from None
        total += max(0.0, e.completion - deadline)
    return total


def schedule_cost(
    schedule: Schedule,
    deadlines: Mapping[int, float],
    weights: CostWeights = CostWeights(),
    *,
    idle_weighter: IdleWeighter = linear_idle_weight,
) -> CostBreakdown:
    """Evaluate eq. (8) for one built schedule."""
    omega = schedule.relative_makespan
    phi = weighted_idle_time(schedule, idle_weighter)
    theta = deadline_penalty(schedule, deadlines)
    combined = (
        weights.makespan * omega + weights.idle * phi + weights.deadline * theta
    ) / weights.total
    return CostBreakdown(omega, phi, theta, combined)
