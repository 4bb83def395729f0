"""Service-advertisement strategies (§3.1).

"An agent can advertise service information to both upper and lower agents.
Different strategies can be used to control these processes, which has an
impact on the system efficiency.  Service information can be pushed to or
pulled from other agents, a process that is triggered by system events or
through periodic updates."

The paper's case study uses **periodic pull**: "Each agent pulls service
information from its lower and upper agents every ten seconds" (§4.1).
Event-driven push and a no-advertisement null strategy are provided for the
advertisement ablation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Optional

from repro.errors import ValidationError
from repro.sim.events import Priority
from repro.sim.process import PeriodicProcess
from repro.utils.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.agents.agent import Agent

__all__ = [
    "AdvertisementStrategy",
    "PeriodicPullStrategy",
    "EventPushStrategy",
    "NoAdvertisement",
    "DEFAULT_PULL_INTERVAL",
]

#: The case study's cadence: "every ten seconds".
DEFAULT_PULL_INTERVAL = 10.0

#: Minimum virtual seconds between two event-driven pushes of one agent.
PUSH_MIN_INTERVAL = 1.0


class AdvertisementStrategy(ABC):
    """How an agent keeps its neighbours' view of it (and vice versa) fresh."""

    @abstractmethod
    def start(self, agent: "Agent") -> None:
        """Attach to *agent* and begin operating."""

    @abstractmethod
    def stop(self) -> None:
        """Cease operating (idempotent)."""

    def snapshot_state(self) -> dict:
        """Checkpointable strategy state; stateless strategies return ``{}``."""
        return {}

    def restore_state(self, state: dict, agent: "Agent") -> None:  # noqa: ARG002
        """Rebuild from :meth:`snapshot_state` without advertising."""
        return


class PeriodicPullStrategy(AdvertisementStrategy):
    """Pull neighbours' service information on a fixed timer (§4.1).

    Every *interval* seconds the agent sends a PULL to each neighbour;
    each neighbour replies with an ADVERTISE carrying its current record.
    """

    def __init__(self, interval: float = DEFAULT_PULL_INTERVAL) -> None:
        check_positive(interval, "interval")
        self._interval = float(interval)
        self._process: Optional[PeriodicProcess] = None

    def start(self, agent: "Agent") -> None:
        if self._process is not None:
            raise ValidationError("strategy already started")
        # fire_immediately warms the registries at start-up: each agent
        # knows its neighbours' initial (idle) state before the first
        # request arrives, as a freshly deployed agent system would.
        self._process = PeriodicProcess(
            agent.sim,
            self._interval,
            agent.pull_neighbours,
            priority=Priority.ADVERTISEMENT,
            fire_immediately=True,
            label=f"pull-{agent.name}",
        )
        self._process.start()

    def stop(self) -> None:
        if self._process is not None:
            self._process.stop()
            self._process = None

    def snapshot_state(self) -> dict:
        """The pull process state, or ``None`` while stopped."""
        return {
            "process": (
                None if self._process is None else self._process.snapshot_state()
            )
        }

    def restore_state(self, state: dict, agent: "Agent") -> None:
        """Re-create the pull process at its snapshot position, silently.

        Unlike :meth:`start`, no immediate pull fires — the snapshot's
        pending-event descriptor already encodes the next pull.
        """
        if self._process is not None:
            self._process.stop()
            self._process = None
        if state["process"] is None:
            return
        self._process = PeriodicProcess(
            agent.sim,
            self._interval,
            agent.pull_neighbours,
            priority=Priority.ADVERTISEMENT,
            fire_immediately=True,
            label=f"pull-{agent.name}",
        )
        self._process.restore_state(state["process"])


class EventPushStrategy(AdvertisementStrategy):
    """Push service information to neighbours whenever it changes.

    The scheduler signals a possible service change on every arrival and
    completion; pushing each one would flood the hierarchy, so pushes are
    rate-limited to at most one per :data:`PUSH_MIN_INTERVAL` seconds
    (trailing changes are swept by the next triggering event).
    """

    def __init__(self) -> None:
        self._agent: Optional["Agent"] = None
        self._last_push: float = float("-inf")
        self._active = False

    def start(self, agent: "Agent") -> None:
        if self._active:
            raise ValidationError("strategy already started")
        if self._agent is not None and agent is not self._agent:
            raise ValidationError("strategy already bound to another agent")
        # Subscribe on every (re)start; stop() unsubscribes, so exactly one
        # registration is live while active and none while stopped — a
        # crash/restart cycle neither leaks a stale closure nor doubles
        # subsequent pushes.
        agent.scheduler.on_service_change(self._maybe_push)
        self._agent = agent
        self._active = True
        # Seed neighbours with an initial advertisement.
        agent.push_to_neighbours()
        self._last_push = agent.sim.now

    def stop(self) -> None:
        if self._active and self._agent is not None:
            self._agent.scheduler.off_service_change(self._maybe_push)
        self._active = False

    def _maybe_push(self) -> None:
        if not self._active or self._agent is None:
            return
        now = self._agent.sim.now
        if now - self._last_push >= PUSH_MIN_INTERVAL:
            self._last_push = now
            self._agent.push_to_neighbours()

    def snapshot_state(self) -> dict:
        """Activity flag and rate-limit clock (``None`` = never pushed)."""
        last = None if self._last_push == float("-inf") else self._last_push
        return {"active": self._active, "last_push": last}

    def restore_state(self, state: dict, agent: "Agent") -> None:
        """Rebind and re-subscribe (when active) without pushing."""
        if self._active and self._agent is not None:
            self._agent.scheduler.off_service_change(self._maybe_push)
        self._agent = agent
        self._active = bool(state["active"])
        last = state["last_push"]
        self._last_push = float("-inf") if last is None else float(last)
        if self._active:
            agent.scheduler.on_service_change(self._maybe_push)


class NoAdvertisement(AdvertisementStrategy):
    """Null strategy: neighbours never learn this agent's state (ablation)."""

    def start(self, agent: "Agent") -> None:  # noqa: ARG002 - uniform interface
        return

    def stop(self) -> None:
        return
