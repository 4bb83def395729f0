"""The resource-monitoring module (§2.2).

"The resource monitoring is responsible for gathering statistics concerning
the process nodes on which tasks may execute. ... Currently, only host
availability is supported, where the resource monitor queries each known
node every five minutes. ... Resource monitoring is also responsible for
organising the GA scheduling results and resource availabilities into
service information that can be advertised."

The monitor keeps an availability flag per node, polls on a periodic timer
(default 300 s, as in the paper), and exposes the poll as an observable so
the scheduler refreshes advertised service information.  Failure injection
(``mark_down`` / ``mark_up``) feeds the robustness tests: the paper's real
monitor would discover a crashed host at the next poll, so availability
changes only become *visible* to consumers at poll time unless an
immediate refresh is forced.

The load statistics the paper lists as pending ("availability, load
average and idle time.  Currently, only host availability is supported")
are provided through the NWS-substitute extension: with ``track_load``
enabled the monitor keeps one adaptive
:class:`~repro.pace.forecast.LoadTracker` per node; polls sample a
caller-provided load source, and consumers read per-node slowdown
forecasts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

from repro.errors import ValidationError
from repro.sim.engine import Engine
from repro.sim.events import Priority
from repro.sim.process import PeriodicProcess

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.pace.forecast import LoadTracker

__all__ = ["ResourceMonitor", "DEFAULT_POLL_INTERVAL"]

#: A load source maps a node id to its current load average.
LoadSource = Callable[[int], float]

#: The paper's polling cadence: "every five minutes".
DEFAULT_POLL_INTERVAL = 300.0


class ResourceMonitor:
    """Polls node availability and notifies observers (§2.2).

    Parameters
    ----------
    sim:
        The discrete-event engine supplying the timer.
    n_nodes:
        Number of nodes monitored.
    poll_interval:
        Seconds between polls (paper default: 300).
    """

    def __init__(
        self,
        sim: Engine,
        n_nodes: int,
        *,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        load_source: Optional[LoadSource] = None,
    ) -> None:
        if n_nodes < 1:
            raise ValidationError(f"n_nodes must be >= 1, got {n_nodes}")
        self._sim = sim
        self._actual_up: List[bool] = [True] * n_nodes  # ground truth
        self._observed_up: List[bool] = [True] * n_nodes  # as of last poll
        self._observers: List[Callable[[], None]] = []
        self._polls = 0
        self._load_source = load_source
        self._trackers: Optional[List[LoadTracker]] = None
        if load_source is not None:
            from repro.pace.forecast import LoadTracker

            self._trackers = [LoadTracker() for _ in range(n_nodes)]
        self._process = PeriodicProcess(
            sim,
            poll_interval,
            self.poll,
            priority=Priority.MONITORING,
            label="resource-monitor-poll",
        )

    # ------------------------------------------------------------------ state

    def unavailable_ids(self) -> List[int]:
        """Node ids observed down at the last poll."""
        return [i for i, up in enumerate(self._observed_up) if not up]

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Begin periodic polling."""
        self._process.start()

    def stop(self) -> None:
        """Stop periodic polling."""
        self._process.stop()

    def subscribe(self, observer: Callable[[], None]) -> None:
        """Register a callback fired after every poll (service-info refresh)."""
        self._observers.append(observer)

    def poll(self) -> None:
        """Query every node now, updating availability (and load samples)."""
        self._polls += 1
        self._observed_up = list(self._actual_up)
        if self._trackers is not None:
            assert self._load_source is not None
            for nid, tracker in enumerate(self._trackers):
                if self._actual_up[nid]:
                    tracker.observe(float(self._load_source(nid)))
        for observer in self._observers:
            observer()

    # ------------------------------------------------------------- checkpoint

    def snapshot_state(self) -> dict:
        """Availability flags, poll count, and the polling process.

        Load tracking (the NWS extension) is not checkpointable yet — no
        experiment path enables it, and silently dropping tracker state
        would corrupt forecasts on resume.
        """
        if self._trackers is not None:
            from repro.errors import CheckpointError

            raise CheckpointError(
                "cannot checkpoint a monitor with load tracking enabled"
            )
        return {
            "actual_up": list(self._actual_up),
            "observed_up": list(self._observed_up),
            "polls": self._polls,
            "process": self._process.snapshot_state(),
        }

    def restore_state(self, state: dict) -> None:
        """Rewind availability and re-arm the polling process."""
        self._actual_up = [bool(x) for x in state["actual_up"]]
        self._observed_up = [bool(x) for x in state["observed_up"]]
        self._polls = int(state["polls"])
        self._process.restore_state(state["process"])

    # -------------------------------------------------------- load forecasts

    def slowdown(self, node_id: int) -> float:
        """Forecast execution-time multiplier for *node_id* (>= 1).

        1.0 when load tracking is disabled or no samples exist yet.
        """
        self._check_node(node_id)
        if self._trackers is None:
            return 1.0
        return self._trackers[node_id].slowdown()

    # ----------------------------------------------------- failure injection

    def mark_down(self, node_id: int, *, immediate: bool = False) -> None:
        """Simulate a node crash; discovered at the next poll unless *immediate*."""
        self._check_node(node_id)
        self._actual_up[node_id] = False
        if immediate:
            self.poll()

    def mark_up(self, node_id: int, *, immediate: bool = False) -> None:
        """Simulate a node recovery; discovered at the next poll unless *immediate*."""
        self._check_node(node_id)
        self._actual_up[node_id] = True
        if immediate:
            self.poll()

    def _check_node(self, node_id: int) -> None:
        if not (0 <= node_id < len(self._actual_up)):
            raise ValidationError(
                f"node_id {node_id} out of range 0..{len(self._actual_up) - 1}"
            )
