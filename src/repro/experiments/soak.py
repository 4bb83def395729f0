"""Long-horizon soak runs with windowed metrics and periodic checkpoints.

A soak run pushes a continuous arrival stream (thousands of requests)
through the grid and reduces the outcome to fixed-width *time windows*
instead of one end-of-run summary, so throughput or deadline regressions
that only appear after sustained load show up with a timestamp.  The
driver holds only per-scheduler cursors and the closed window summaries —
its memory is bounded by the window count, not the request count — and
(optionally) rewrites one resumable snapshot at every window boundary, so
a killed soak loses at most one window of progress.

Resume semantics match the experiment drivers: windows closed before the
snapshot are carried in the snapshot itself, and the windows closed after
:func:`resume_soak` are byte-identical to the uninterrupted run's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ExperimentError
from repro.experiments.casestudy import GridTopology
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    MAX_EVENTS,
    GridSystem,
    _arm_grid,
    _restore,
    tolerant_submitter,
    write_checkpoint,
)
from repro.experiments.workload import WorkloadItem
from repro.metrics.records import records_from_tasks
from repro.obs.trace import Tracer

__all__ = ["SoakWindow", "SoakResult", "run_soak", "checkpoint_soak", "resume_soak"]


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

    @property
    def total_requests(self) -> int:
        return self.total_completed + self.total_failed


@dataclass
class _SoakProgress:
    """The driver's mutable window-tracking state (snapshot-portable)."""

    window_seconds: float
    next_boundary: float
    windows: List[SoakWindow] = field(default_factory=list)
    #: Per-scheduler index of the first completed task not yet summarised.
    task_cursors: Dict[str, int] = field(default_factory=dict)
    #: Index of the first portal failure not yet summarised.
    failure_cursor: int = 0

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
    def decode(cls, data: dict) -> "_SoakProgress":
        progress = cls(
            window_seconds=float(data["window_seconds"]),
            next_boundary=float(data["next_boundary"]),
        )
        progress.windows = [
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
        ]
        progress.task_cursors = {
            str(k): int(v) for k, v in data["task_cursors"].items()
        }
        progress.failure_cursor = int(data["failure_cursor"])
        return progress


def _close_window(system: GridSystem, progress: _SoakProgress, end: float) -> None:
    """Summarise everything completed since the cursors into one window."""
    batch = []
    for name, scheduler in sorted(system.schedulers.items()):
        completed = scheduler.executor.completed_tasks
        cursor = progress.task_cursors.get(name, 0)
        batch.extend(completed[cursor:])
        progress.task_cursors[name] = len(completed)
    failures = system.portal.failures()
    failed = len(failures) - progress.failure_cursor
    progress.failure_cursor = len(failures)
    records = records_from_tasks(batch)
    responses = [r.completion - r.submit_time for r in records]
    start = end - progress.window_seconds
    progress.windows.append(
        SoakWindow(
            index=len(progress.windows),
            start=start,
            end=end,
            completed=len(records),
            failed=failed,
            deadline_met=sum(1 for r in records if r.met_deadline),
            mean_response=(sum(responses) / len(responses)) if responses else 0.0,
            throughput=len(records) / progress.window_seconds,
        )
    )


def run_soak(
    config: ExperimentConfig,
    topology: Optional[GridTopology] = None,
    *,
    window_seconds: float = 500.0,
    workload: Optional[List[WorkloadItem]] = None,
    tracer: Optional[Tracer] = None,
    checkpoint_path: Optional[str] = None,
) -> SoakResult:
    """Run a continuous-arrival soak to completion, one window at a time.

    ``config.request_count`` sets the stream length (soak runs typically
    use thousands); pass *workload* to drive the soak with an explicit
    item list instead — generated scenarios use this to supply bursty or
    heavy-tailed arrival streams.  With ``checkpoint_path``, one resumable
    snapshot is rewritten at every window boundary; :func:`resume_soak`
    continues it with byte-identical windows.
    """
    if window_seconds <= 0:
        raise ExperimentError(f"window_seconds must be > 0, got {window_seconds}")
    t_wall = time.perf_counter()
    system, items, arrivals = _arm_grid(
        config, topology, workload, tracer, tolerant_submitter
    )
    progress = _SoakProgress(
        window_seconds=window_seconds, next_boundary=window_seconds
    )
    return _drive_soak(
        system,
        items,
        arrivals,
        progress,
        steps=0,
        t_wall=t_wall,
        checkpoint_path=checkpoint_path,
    )


def checkpoint_soak(
    config: ExperimentConfig,
    topology: Optional[GridTopology] = None,
    *,
    window_seconds: float = 500.0,
    at_step: int,
    path: str,
    tracer: Optional[Tracer] = None,
) -> str:
    """Run a soak for exactly *at_step* events, snapshot, and stop.

    Test/CLI helper mirroring
    :func:`~repro.experiments.runner.checkpoint_experiment`; returns the
    snapshot digest.
    """
    if at_step < 1:
        raise ExperimentError(f"at_step must be >= 1, got {at_step}")
    if window_seconds <= 0:
        raise ExperimentError(f"window_seconds must be > 0, got {window_seconds}")
    system, items, arrivals = _arm_grid(
        config, topology, None, tracer, tolerant_submitter
    )
    progress = _SoakProgress(
        window_seconds=window_seconds, next_boundary=window_seconds
    )
    for steps in range(1, at_step + 1):
        if not system.sim.step():
            raise ExperimentError(
                f"soak finished after {steps - 1} events, before at_step={at_step}"
            )
        while system.sim.now >= progress.next_boundary:
            _close_window(system, progress, progress.next_boundary)
            progress.next_boundary += progress.window_seconds
    return write_checkpoint(
        path,
        system,
        items,
        arrivals,
        at_step,
        kind="soak",
        extra={"soak": progress.encode()},
    )


def resume_soak(
    path: str,
    *,
    tracer: Optional[Tracer] = None,
    checkpoint_path: Optional[str] = None,
) -> SoakResult:
    """Resume a soak from a snapshot; windows continue byte-identically."""
    t_wall = time.perf_counter()
    payload, system, items, arrivals = _restore(path, "soak", tracer)
    progress = _SoakProgress.decode(payload["soak"])
    return _drive_soak(
        system,
        items,
        arrivals,
        progress,
        steps=int(payload["steps"]),
        t_wall=t_wall,
        checkpoint_path=checkpoint_path,
    )


def _drive_soak(
    system: GridSystem,
    items: List[WorkloadItem],
    arrivals: Dict[int, object],
    progress: _SoakProgress,
    *,
    steps: int,
    t_wall: float,
    checkpoint_path: Optional[str],
) -> SoakResult:
    portal = system.portal
    while portal.pending_count > 0 or portal.submitted_count < len(items):
        if not system.sim.step():
            raise ExperimentError(
                f"event queue drained with {portal.pending_count} "
                "requests still pending"
            )
        steps += 1
        if steps > MAX_EVENTS:
            raise ExperimentError(f"soak exceeded {MAX_EVENTS} events")
        while system.sim.now >= progress.next_boundary:
            _close_window(system, progress, progress.next_boundary)
            progress.next_boundary += progress.window_seconds
            if checkpoint_path is not None:
                write_checkpoint(
                    checkpoint_path,
                    system,
                    items,
                    arrivals,
                    steps,
                    kind="soak",
                    extra={"soak": progress.encode()},
                )
    system.stop()
    # The final partial window catches the tail of the stream.
    if any(
        len(scheduler.executor.completed_tasks) > progress.task_cursors.get(name, 0)
        for name, scheduler in system.schedulers.items()
    ) or len(portal.failures()) > progress.failure_cursor:
        _close_window(system, progress, progress.next_boundary)
    total_completed = sum(
        len(s.executor.completed_tasks) for s in system.schedulers.values()
    )
    return SoakResult(
        config=system.config,
        windows=progress.windows,
        total_completed=total_completed,
        total_failed=len(portal.failures()),
        horizon=system.sim.now,
        steps=steps,
        wall_seconds=time.perf_counter() - t_wall,
        rng_digest=system.rngs.state_digest() if system.rngs is not None else "",
    )
