"""Service-advertisement strategies (§3.1).

"An agent can advertise service information to both upper and lower agents.
Different strategies can be used to control these processes, which has an
impact on the system efficiency.  Service information can be pushed to or
pulled from other agents, a process that is triggered by system events or
through periodic updates."

The strategy is one choice for the whole grid, so a grid has one strategy
object, handed to every agent as the transport is.  The paper's case study
uses **periodic pull**: "Each agent pulls service information from its
lower and upper agents every ten seconds" (§4.1).  Event-driven push and a
no-advertisement null strategy are provided for the advertisement ablation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional

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
    "EventPushStrategy",
    "NoAdvertisement",
]

#: Minimum virtual seconds between two event-driven pushes of one agent.
PUSH_MIN_INTERVAL = 1.0


class AdvertisementStrategy(ABC):
    """How a grid's agents keep their neighbours' view of them fresh.

    One object serves every agent of a grid; its per-agent state is keyed
    by agent name.
    """

    @abstractmethod
    def start(self, agent: "Agent") -> None:
        """Begin advertising for *agent*."""

    @abstractmethod
    def stop(self, agent: "Agent") -> None:
        """Stop advertising for *agent* (idempotent)."""

    def snapshot_state(self) -> dict:
        """Checkpointable strategy state; stateless strategies return ``{}``."""
        return {}

    def restore_state(  # noqa: ARG002 - uniform interface
        self, state: dict, agents: Mapping[str, "Agent"]
    ) -> None:
        """Rebuild from :meth:`snapshot_state` on an un-started grid of
        *agents* (by name), without advertising."""
        return


class PullRounds(AdvertisementStrategy):
    """Periodic pull, one timer per instant for the whole grid (§4.1).

    Every *interval* seconds each agent pulls its neighbours: it sends a
    PULL to each, and each neighbour replies with an ADVERTISE carrying
    its current record.  Agents whose pulls fall due at one instant share
    one :attr:`Priority.ADVERTISEMENT` event, a *round*, which calls their
    :meth:`~repro.agents.agent.Agent.pull_neighbours` in the order their
    own timers would have fired and then re-arms once.  That is the fire
    order of one timer per agent, because a pull only sends (its
    deliveries fire after every ADVERTISEMENT event of the instant) and
    nothing else schedules at that priority.  Four rules keep it so:

    1. A starting agent joins the unfired round due now, or opens a new
       one: its own timer would have fired after every timer queued
       before it.  The first pull is due at start, so a freshly deployed
       (or restarted) agent learns its neighbours' state at once.
    2. A round re-arming onto an instant that already has a round
       appends its members after that round's: the round already there
       was armed first.
    3. A stopping agent leaves its round, and a round left empty is
       cancelled, so no empty timer holds the clock back.
    4. A snapshot records the pending rounds, each with its event and its
       members' names in fire order, and restore re-creates them as they
       were.

    A round sends its PULLs inside one *transport* batch
    (:meth:`~repro.net.transport.Transport.open_batch`): one event
    delivers them all, and one more the ADVERTISEs answering them.  With
    an event per message the PULLs would have been consecutive
    same-instant deliveries, and delivering a PULL or an ADVERTISE schedules
    nothing at the instant but the PULL's answer, so every handler runs
    at the same instant, in the same order, on the same state.
    """

    def __init__(self, sim: Engine, transport: Transport, interval: float) -> None:
        check_positive(interval, "interval")
        self._sim = sim
        self._transport = transport
        self._interval = float(interval)
        # Unfired rounds by due time: at most one per instant.
        self._due: Dict[float, _Round] = {}
        # Each started agent's round, by agent name.
        self._round_of: Dict[str, _Round] = {}
        # One bound method shared by every round event; the event's
        # argument is its round.
        self._fire_hook = self._fire

    def start(self, agent: "Agent") -> None:
        """Rule 1: add *agent* to the unfired round due now, or open one."""
        if agent.name in self._round_of:
            raise ValidationError(f"agent {agent.name!r} already pulls")
        rnd = self._due.get(self._sim.now)
        if rnd is None:
            rnd = self._arm(_Round(), 0.0)
        rnd.members.append(agent)
        self._round_of[agent.name] = rnd

    def stop(self, agent: "Agent") -> None:
        """Rule 3: drop *agent* from its round; cancel the round if empty."""
        rnd = self._round_of.pop(agent.name, None)
        if rnd is None:
            return
        rnd.members.remove(agent)
        if not rnd.members:
            rnd.event.cancel()
            del self._due[rnd.event.time]

    def snapshot_state(self) -> dict:
        """Rule 4: the pending rounds in event-sequence order, each its
        event descriptor and its members' names in fire order."""
        return {
            "rounds": [
                {
                    "event": rnd.event.descriptor(),
                    "members": [agent.name for agent in rnd.members],
                }
                for rnd in sorted(
                    self._due.values(), key=lambda rnd: rnd.event.sequence
                )
            ]
        }

    def restore_state(self, state: dict, agents: Mapping[str, "Agent"]) -> None:
        """Re-create each snapshot round with its original event identity."""
        for raw in state["rounds"]:
            rnd = _Round()
            rnd.event = self._sim.restore_event(raw["event"], self._fire_hook, arg=rnd)
            self._due[rnd.event.time] = rnd
            for name in raw["members"]:
                rnd.members.append(agents[name])
                self._round_of[name] = rnd

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
        for agent in rnd.members:
            agent.pull_neighbours()
        transport.close_batch()
        later = self._due.get(self._sim.now + self._interval)
        if later is None:
            self._arm(rnd, self._interval)
            return
        # Rule 2.
        later.members.extend(rnd.members)
        round_of = self._round_of
        for agent in rnd.members:
            round_of[agent.name] = later


class _Round:
    """One pull round: its pending event and its members in fire order."""

    __slots__ = ("event", "members")

    def __init__(self) -> None:
        self.event: Optional[Event] = None
        self.members: List["Agent"] = []


class EventPushStrategy(AdvertisementStrategy):
    """Push service information to neighbours whenever it changes.

    The scheduler signals a possible service change on every arrival and
    completion; pushing each one would flood the hierarchy, so an agent
    pushes at most once per :data:`PUSH_MIN_INTERVAL` seconds (trailing
    changes are swept by the next triggering event).
    """

    def __init__(self) -> None:
        # Each started agent's service-change listener, by agent name:
        # exactly one is subscribed while the agent runs and none while
        # it is stopped, so a crash/restart cycle neither leaks a stale
        # listener nor doubles later pushes.
        self._listeners: Dict[str, Callable[[], None]] = {}
        # Each agent's last push time, by agent name.
        self._last_push: Dict[str, float] = {}

    def start(self, agent: "Agent") -> None:
        if agent.name in self._listeners:
            raise ValidationError(f"agent {agent.name!r} already pushes")
        self._listen(agent)
        # Seed neighbours with an initial advertisement.
        agent.push_to_neighbours()
        self._last_push[agent.name] = agent.sim.now

    def stop(self, agent: "Agent") -> None:
        listener = self._listeners.pop(agent.name, None)
        if listener is not None:
            agent.scheduler.off_service_change(listener)

    def _listen(self, agent: "Agent") -> None:
        listener = self._listeners[agent.name] = partial(self._maybe_push, agent)
        agent.scheduler.on_service_change(listener)

    def _maybe_push(self, agent: "Agent") -> None:
        now = agent.sim.now
        if now - self._last_push[agent.name] >= PUSH_MIN_INTERVAL:
            self._last_push[agent.name] = now
            agent.push_to_neighbours()

    def snapshot_state(self) -> dict:
        """The running agents' names and every agent's last push time."""
        return {"active": sorted(self._listeners), "last_push": dict(self._last_push)}

    def restore_state(self, state: dict, agents: Mapping[str, "Agent"]) -> None:
        """Re-subscribe the running agents without pushing."""
        self._last_push = {
            name: float(t) for name, t in state["last_push"].items()
        }
        for name in state["active"]:
            self._listen(agents[name])


class NoAdvertisement(AdvertisementStrategy):
    """Null strategy: neighbours never learn any agent's state (ablation)."""

    def start(self, agent: "Agent") -> None:  # noqa: ARG002 - uniform interface
        return

    def stop(self, agent: "Agent") -> None:  # noqa: ARG002 - uniform interface
        return
