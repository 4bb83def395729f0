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
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.errors import ValidationError
from repro.sim.events import Event, Priority
from repro.utils.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.agents.agent import Agent
    from repro.net.transport import Transport
    from repro.sim.engine import Engine

__all__ = [
    "AdvertisementStrategy",
    "PullRounds",
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


class PullRounds:
    """The periodic pulls of one grid, one timer per instant (§4.1).

    Every *interval* seconds each agent pulls its neighbours.  Agents
    whose pulls fall due at one instant share one
    :attr:`Priority.ADVERTISEMENT` event, a *round*, which calls their
    :meth:`~repro.agents.agent.Agent.pull_neighbours` in the order their
    own timers would have fired and then re-arms once.  That is the fire
    order of one timer per agent, because a pull only sends (its
    deliveries fire after every ADVERTISEMENT event of the instant) and
    nothing else schedules at that priority.  Four rules keep it so:

    1. A starting agent joins the unfired round due now, or opens a new
       one: its own timer would have fired after every timer queued
       before it.
    2. A round re-arming onto an instant that already has a round
       appends its members after that round's: the round already there
       was armed first.
    3. A stopping member leaves its round, and a round left empty is
       cancelled, so no empty timer holds the clock back.
    4. A snapshot records each running member's round descriptor and
       position, and :meth:`rejoin` rebuilds the rounds in that order.

    A round sends its PULLs inside one *transport* batch
    (:meth:`~repro.net.transport.Transport.open_batch`): one event
    delivers them all, and one more the ADVERTISEs answering them.  With
    an event per message the PULLs would have been consecutive
    same-instant deliveries, and delivering a PULL or an ADVERTISE schedules
    nothing at the instant but the PULL's answer, so every handler runs
    at the same instant, in the same order, on the same state.

    :func:`~repro.experiments.runner.build_grid` builds one per grid and
    hands it to every agent's :class:`PeriodicPullStrategy`; a strategy
    built without one owns its own.
    """

    def __init__(self, sim: Engine, transport: Transport, interval: float) -> None:
        check_positive(interval, "interval")
        self._sim = sim
        self._transport = transport
        self._interval = float(interval)
        # Unfired rounds by due time: at most one per instant.
        self._due: Dict[float, _Round] = {}
        # One bound method shared by every round event; the event's
        # argument is its round.
        self._fire_hook = self._fire

    @property
    def interval(self) -> float:
        """Seconds between two pulls of one agent."""
        return self._interval

    def join(self, member: "PeriodicPullStrategy") -> None:
        """Rule 1: add *member* to the unfired round due now, or open one."""
        rnd = self._due.get(self._sim.now)
        if rnd is None:
            rnd = self._arm(_Round(), 0.0)
        rnd.members.append(member)
        member._round = rnd

    def leave(self, member: "PeriodicPullStrategy") -> None:
        """Rule 3: drop *member* from its round; cancel the round if empty."""
        rnd = member._round
        member._round = None
        rnd.members.remove(member)
        if not rnd.members:
            rnd.event.cancel()
            del self._due[rnd.event.time]

    def rejoin(
        self, member: "PeriodicPullStrategy", descriptor: dict, position: int
    ) -> None:
        """Rule 4: put *member* back at *position* of its snapshot round.

        The first member restored re-creates the round's event with its
        original identity; every member of the round has a position, so
        once all are restored the round has no gaps.
        """
        due = float(descriptor["time"])
        rnd = self._due.get(due)
        if rnd is None:
            rnd = _Round()
            rnd.event = self._sim.restore_event(
                descriptor, self._fire_hook, arg=rnd
            )
            self._due[due] = rnd
        members = rnd.members
        if len(members) <= position:
            members.extend([None] * (position + 1 - len(members)))
        members[position] = member
        member._round = rnd

    def _arm(self, rnd: "_Round", delay: float) -> "_Round":
        rnd.event = self._sim.schedule_in(
            delay,
            self._fire_hook,
            priority=Priority.ADVERTISEMENT,
            label="pull-round",
            arg=rnd,
        )
        self._due[rnd.event.time] = rnd
        return rnd

    def _fire(self, rnd: "_Round") -> None:
        del self._due[rnd.event.time]
        # A pull only sends, so no member joins or leaves while its round
        # fires.
        transport = self._transport
        transport.open_batch()
        for member in rnd.members:
            member._pull()
        transport.close_batch()
        later = self._due.get(self._sim.now + self._interval)
        if later is None:
            self._arm(rnd, self._interval)
            return
        # Rule 2.
        later.members.extend(rnd.members)
        for member in rnd.members:
            member._round = later


class _Round:
    """One pull round: its pending event and its members in fire order."""

    __slots__ = ("event", "members")

    def __init__(self) -> None:
        self.event: Optional[Event] = None
        self.members: List[Optional["PeriodicPullStrategy"]] = []


class PeriodicPullStrategy(AdvertisementStrategy):
    """Pull neighbours' service information on a fixed timer (§4.1).

    Every *interval* seconds the agent sends a PULL to each neighbour;
    each neighbour replies with an ADVERTISE carrying its current record.
    The pulls run in *rounds*, the grid's :class:`PullRounds` (whose
    interval must equal *interval*); without one the strategy owns its
    own.
    """

    def __init__(
        self,
        interval: float = DEFAULT_PULL_INTERVAL,
        *,
        rounds: Optional[PullRounds] = None,
    ) -> None:
        check_positive(interval, "interval")
        if rounds is not None and rounds.interval != interval:
            raise ValidationError(
                f"interval {interval} differs from the rounds' {rounds.interval}"
            )
        self._interval = float(interval)
        self._rounds = rounds
        self._round: Optional[_Round] = None
        self._pull: Optional[Callable[[], None]] = None

    def _bind(self, agent: "Agent") -> PullRounds:
        if self._rounds is None:
            self._rounds = PullRounds(agent.sim, agent._transport, self._interval)
        self._pull = agent.pull_neighbours
        return self._rounds

    def start(self, agent: "Agent") -> None:
        if self._round is not None:
            raise ValidationError("strategy already started")
        # The first pull is due now: it warms the registries at start-up,
        # so each agent knows its neighbours' initial (idle) state before
        # the first request arrives, as a freshly deployed agent system
        # would.
        self._bind(agent).join(self)

    def stop(self) -> None:
        if self._round is not None:
            self._rounds.leave(self)

    def snapshot_state(self) -> dict:
        """The round's event descriptor and this agent's place in it, or
        ``None`` while stopped."""
        rnd = self._round
        if rnd is None:
            return {"round": None}
        return {
            "round": rnd.event.descriptor(),
            "position": rnd.members.index(self),
        }

    def restore_state(self, state: dict, agent: "Agent") -> None:
        """Rejoin the snapshot's round at the snapshot's place, silently.

        Unlike :meth:`start`, no immediate pull fires — the round's
        descriptor already encodes the next pull.
        """
        self.stop()
        if state["round"] is None:
            return
        self._bind(agent).rejoin(self, state["round"], int(state["position"]))


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
