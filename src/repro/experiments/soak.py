"""Windowed metrics for long-horizon soak runs.

A soak run (:func:`repro.experiments.runner.run_soak`) pushes a continuous
arrival stream (thousands of requests) through the grid and reduces the
outcome to fixed-width *time windows* instead of one end-of-run summary,
so throughput or deadline regressions that only appear after sustained
load show up with a timestamp.  :class:`SoakProgress` holds only
per-scheduler cursors and the closed window summaries — its memory is
bounded by the window count, not the request count — and travels in the
run's snapshot, so the windows closed after a resume are byte-identical
to the uninterrupted run's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.errors import ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.metrics.records import records_from_tasks

__all__ = ["SoakWindow", "SoakResult", "SoakProgress"]


@dataclass(frozen=True)
class SoakWindow:
    """Summary of one ``[start, end)`` slice of simulated time."""

    index: int
    start: float
    end: float
    completed: int
    failed: int
    deadline_met: int
    #: Mean ``completion − submit`` over the window's completions (0 when empty).
    mean_response: float
    #: Completions per unit of simulated time.
    throughput: float


@dataclass
class SoakResult:
    """Everything a soak run produced, window by window."""

    config: ExperimentConfig
    windows: List[SoakWindow]
    total_completed: int
    total_failed: int
    horizon: float
    steps: int
    wall_seconds: float
    rng_digest: str = ""


@dataclass
class SoakProgress:
    """A soak run's window-tracking state (snapshot-portable)."""

    window_seconds: float
    next_boundary: float
    windows: List[SoakWindow] = field(default_factory=list)
    #: Per-scheduler index of the first completed task not yet summarised.
    task_cursors: Dict[str, int] = field(default_factory=dict)
    #: Index of the first portal failure not yet summarised.
    failure_cursor: int = 0

    @classmethod
    def begin(cls, window_seconds: float) -> "SoakProgress":
        """Progress at time 0, the first window ending at *window_seconds*."""
        if window_seconds <= 0:
            raise ExperimentError(f"window_seconds must be > 0, got {window_seconds}")
        return cls(window_seconds=window_seconds, next_boundary=window_seconds)

    def close_passed(self, system) -> bool:
        """Close every window whose end *system*'s clock has reached.

        Returns whether any window closed.
        """
        closed = False
        while system.sim.now >= self.next_boundary:
            self._close(system, self.next_boundary)
            self.next_boundary += self.window_seconds
            closed = True
        return closed

    def result(self, system, steps: int, wall_seconds: float) -> SoakResult:
        """The finished run's result; a final partial window catches the
        tail of the stream."""
        portal = system.portal
        if any(
            len(scheduler.executor.completed_tasks) > self.task_cursors.get(name, 0)
            for name, scheduler in system.schedulers.items()
        ) or len(portal.failures()) > self.failure_cursor:
            self._close(system, self.next_boundary)
        return SoakResult(
            config=system.config,
            windows=self.windows,
            total_completed=sum(
                len(s.executor.completed_tasks) for s in system.schedulers.values()
            ),
            total_failed=len(portal.failures()),
            horizon=system.sim.now,
            steps=steps,
            wall_seconds=wall_seconds,
            rng_digest=system.rngs.state_digest() if system.rngs is not None else "",
        )

    def _close(self, system, end: float) -> None:
        """Summarise everything completed since the cursors into one window."""
        batch = []
        for name, scheduler in sorted(system.schedulers.items()):
            completed = scheduler.executor.completed_tasks
            batch.extend(completed[self.task_cursors.get(name, 0):])
            self.task_cursors[name] = len(completed)
        failures = system.portal.failures()
        failed = len(failures) - self.failure_cursor
        self.failure_cursor = len(failures)
        records = records_from_tasks(batch)
        responses = [r.completion - r.submit_time for r in records]
        self.windows.append(
            SoakWindow(
                index=len(self.windows),
                start=end - self.window_seconds,
                end=end,
                completed=len(records),
                failed=failed,
                deadline_met=sum(1 for r in records if r.met_deadline),
                mean_response=(sum(responses) / len(responses)) if responses else 0.0,
                throughput=len(records) / self.window_seconds,
            )
        )

    def encode(self) -> dict:
        return {
            "window_seconds": self.window_seconds,
            "next_boundary": self.next_boundary,
            "windows": [
                {
                    "index": w.index,
                    "start": w.start,
                    "end": w.end,
                    "completed": w.completed,
                    "failed": w.failed,
                    "deadline_met": w.deadline_met,
                    "mean_response": w.mean_response,
                    "throughput": w.throughput,
                }
                for w in self.windows
            ],
            "task_cursors": dict(self.task_cursors),
            "failure_cursor": self.failure_cursor,
        }

    @classmethod
    def decode(cls, data: dict) -> "SoakProgress":
        return cls(
            window_seconds=float(data["window_seconds"]),
            next_boundary=float(data["next_boundary"]),
            windows=[
                SoakWindow(
                    index=int(w["index"]),
                    start=float(w["start"]),
                    end=float(w["end"]),
                    completed=int(w["completed"]),
                    failed=int(w["failed"]),
                    deadline_met=int(w["deadline_met"]),
                    mean_response=float(w["mean_response"]),
                    throughput=float(w["throughput"]),
                )
                for w in data["windows"]
            ],
            task_cursors={str(k): int(v) for k, v in data["task_cursors"].items()},
            failure_cursor=int(data["failure_cursor"]),
        )
