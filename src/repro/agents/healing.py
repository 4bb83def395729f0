"""Deterministic self-healing: re-parenting orphaned subtrees.

The membership layer (:mod:`repro.agents.membership`) confirms a
coordinator dead; this module repairs the tree.  The protocol is a single
request/confirm pair — ``ADOPT`` / ``ADOPTED`` — plus one piece of gossip:
every parent→child heartbeat carries a :class:`~repro.net.payloads.KinInfo`
naming the child's grandparent and its siblings in the parent's canonical
children order.  That is exactly enough context for an orphan to pick its
repair target without any global view:

* the **eldest** orphan (first in the dead parent's children order)
  re-attaches to the grandparent — or, when the dead parent was the
  hierarchy head, promotes itself to subtree head;
* every **other** orphan attaches to the eldest sibling;
* an orphan with **no kin knowledge** (its parent died before the first
  heartbeat) soldiers on as a self-rooted subtree.

Adoption is at-least-once: the orphan re-sends ``ADOPT`` every
:data:`HEAL_RETRY` seconds until ``ADOPTED`` lands, and the adopter answers
duplicates idempotently.  If the preferred target never answers
(:data:`MAX_HEAL_ATTEMPTS`), the orphan falls back down a fixed ladder
(eldest → grandparent → self-root), so healing always terminates.  After
re-parenting the orphan replays its service advertisement up the new path
and pulls its new parent, rebuilding the eq.-(10) registries.

A restarted agent uses the same handshake to *rejoin*: it re-ADOPTs its
last known parent, healing the one-sided link its crash left behind.

Determinism: targets come from the kin snapshot (itself a deterministic
children ordering), adopters append children in message-arrival order,
retries ride fixed sim-clock timers, and nothing here draws randomness.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.net.message import Endpoint, MessageKind
from repro.net.payloads import KinInfo
from repro.obs.records import AdoptRequested, AdoptionCompleted
from repro.sim.events import Event, Priority

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.agents.agent import Agent
    from repro.agents.membership import MembershipConfig

__all__ = ["HealerStats", "Healer"]

#: Virtual seconds between ADOPT re-sends to an unanswering target.
HEAL_RETRY = 4.0
#: ADOPT attempts per target before falling down the ladder.
MAX_HEAL_ATTEMPTS = 8


@dataclass
class HealerStats:
    """Counters for one agent's self-healing activity."""

    orphaned: int = 0
    adoptions_requested: int = 0
    adoptions_completed: int = 0
    children_adopted: int = 0
    rejoins: int = 0
    promotions: int = 0
    give_ups: int = 0


class Healer:
    """One agent's side of the ADOPT/ADOPTED re-parenting protocol."""

    def __init__(self, agent: "Agent", config: "MembershipConfig") -> None:
        self._agent = agent
        self._config = config
        self._kin: Optional[KinInfo] = None
        self._orphan_since: Optional[float] = None
        self._pending: Optional[Tuple[str, Endpoint]] = None
        self._reason = ""
        self._attempt = 0
        self._retry: Optional[Event] = None
        #: Confirmed-death → re-parented durations (time-to-repair study).
        self.repair_durations: List[float] = []
        self.stats = HealerStats()

    # -------------------------------------------------------------- lifecycle

    def cancel_retry(self) -> None:
        """Cancel any pending adoption retry timer (agent stopping)."""
        if self._retry is not None:
            self._retry.cancel()
            self._retry = None

    def reset(self) -> None:
        """Forget everything (a crashed process keeps no memory)."""
        self.cancel_retry()
        self._kin = None
        self._orphan_since = None
        self._pending = None
        self._reason = ""
        self._attempt = 0

    # ----------------------------------------------------------------- inputs

    def on_heartbeat(self, sender: Endpoint, kin: KinInfo) -> None:
        """Cache kin gossip — but only from the *current* parent.

        A restarted ex-parent keeps heartbeating its stale children list;
        accepting its kin would teach this agent a phantom family.
        """
        parent = self._agent.parent
        if parent is not None and parent.endpoint == sender:
            self._kin = kin

    def on_parent_dead(self, parent: "Agent") -> None:
        """The confirmed-dead hook: pick a repair target and start adopting."""
        if not self._config.heal:
            return
        self._orphan_since = self._agent.sim.now
        self.stats.orphaned += 1
        kin = self._kin
        if kin is None or kin.parent != parent.name:
            # The parent died before gossiping any kin: nobody to call.
            self._promote_head("orphaned-no-kin")
            return
        eldest = kin.eldest()
        if eldest is not None and eldest[0] != self._agent.name:
            self._begin("adopt-eldest", eldest)
        elif kin.grandparent is not None:
            self._begin("reattach-grandparent", kin.grandparent)
        else:
            self._promote_head("promote-head")

    def on_reactivate(self) -> None:
        """Rejoin after a restart: formally re-ADOPT the last known parent.

        The crash may have outlived this agent's lease at the parent, which
        then severed the link; re-adopting makes it symmetric again.  A
        subtree head has nobody to rejoin.
        """
        if not self._config.heal:
            return
        parent = self._agent.parent
        if parent is None:
            return
        self._begin("rejoin", (parent.name, parent.endpoint))

    # --------------------------------------------------------------- protocol

    def handle_adopt(self, sender: Endpoint) -> None:
        """Adopter side: take the requester in (idempotently) and confirm."""
        if not self._config.heal:
            return
        agent = self._agent
        child = agent.lookup_agent(sender)
        if child is None or child is agent:
            return
        # Cycle guard: adopting an ancestor would orphan *this* agent's
        # whole path to the head.  The walk is bounded by the agent count.
        node = agent.parent
        budget = 10_000
        while node is not None and budget > 0:
            if node is child:
                return
            node = node.parent
            budget -= 1
        if all(c.endpoint != sender for c in agent.children):
            agent._adopt_child(child)  # noqa: SLF001 - healing hook
            self.stats.children_adopted += 1
            if agent.tracer is not None:
                agent.tracer.emit(
                    AdoptionCompleted(
                        t=agent.sim.now, parent=agent.name, child=child.name
                    )
                )
        agent.send_membership(MessageKind.ADOPTED, sender, None)

    def handle_adopted(self, sender: Endpoint) -> None:
        """Orphan side: the handshake closed — attach and replay adverts."""
        if self._pending is None or self._pending[1] != sender:
            return  # stale confirmation from an abandoned attempt
        adopter = self._agent.lookup_agent(sender)
        if adopter is None:
            return
        self._agent._attach_parent(adopter)  # noqa: SLF001 - healing hook
        if self._reason == "rejoin":
            self.stats.rejoins += 1
        else:
            self.stats.adoptions_completed += 1
        self._finish_repair()
        self._agent.replay_advertisement()

    # ---------------------------------------------------------------- attempts

    def _begin(self, reason: str, target: Tuple[str, Endpoint]) -> None:
        self.cancel_retry()
        self._reason = reason
        self._pending = target
        self._attempt = 0
        self._send_adopt()

    def _send_adopt(self) -> None:
        agent = self._agent
        assert self._pending is not None
        name, endpoint = self._pending
        self._attempt += 1
        self.stats.adoptions_requested += 1
        if agent.tracer is not None:
            agent.tracer.emit(
                AdoptRequested(
                    t=agent.sim.now,
                    agent=agent.name,
                    target=name,
                    attempt=self._attempt,
                    reason=self._reason,
                )
            )
        # A failed send (dead target) is fine: the retry timer below is the
        # at-least-once loop, and exhaustion falls down the target ladder.
        agent.send_membership(MessageKind.ADOPT, endpoint, agent.name)
        self._retry = agent.sim.schedule_in(
            HEAL_RETRY,
            self._on_retry,
            priority=Priority.MONITORING,
            label=f"adopt-retry-{agent.name}",
        )

    def _on_retry(self) -> None:
        self._retry = None
        if not self._agent.active or self._pending is None:
            return
        if self._attempt >= MAX_HEAL_ATTEMPTS:
            self._give_up()
            return
        self._send_adopt()

    def _give_up(self) -> None:
        """Fixed fallback ladder: eldest → grandparent → self-root."""
        self.stats.give_ups += 1
        kin = self._kin
        if self._reason == "adopt-eldest" and kin is not None and kin.grandparent:
            self._begin("reattach-grandparent", kin.grandparent)
        elif self._reason == "rejoin":
            # The old parent is gone for good; stay wired as-is and let its
            # own restart (or this agent's next orphaning) resolve it.
            self._pending = None
        else:
            self._promote_head("promote-head")

    def _promote_head(self, reason: str) -> None:
        """Become a self-rooted subtree head (repair complete)."""
        agent = self._agent
        self.cancel_retry()
        self._pending = None
        agent._attach_parent(None)  # noqa: SLF001 - healing hook
        self.stats.promotions += 1
        if agent.tracer is not None:
            agent.tracer.emit(
                AdoptRequested(
                    t=agent.sim.now,
                    agent=agent.name,
                    target="",
                    attempt=self._attempt,
                    reason=reason,
                )
            )
        self._finish_repair()

    def _finish_repair(self) -> None:
        self.cancel_retry()
        self._pending = None
        if self._orphan_since is not None:
            self.repair_durations.append(self._agent.sim.now - self._orphan_since)
            self._orphan_since = None

    # ------------------------------------------------------------- checkpoint

    def snapshot_state(self) -> dict:
        """Kin cache, in-flight repair, retry timer, and repair history."""
        from repro.checkpoint.codec import encode_endpoint, encode_kin_info

        return {
            "kin": None if self._kin is None else encode_kin_info(self._kin),
            "orphan_since": self._orphan_since,
            "pending": (
                None
                if self._pending is None
                else [self._pending[0], encode_endpoint(self._pending[1])]
            ),
            "reason": self._reason,
            "attempt": self._attempt,
            "retry": (
                None
                if self._retry is None or self._retry.cancelled
                else self._retry.descriptor()
            ),
            "repairs": list(self.repair_durations),
            "stats": {f.name: getattr(self.stats, f.name) for f in fields(self.stats)},
        }

    def restore_state(self, state: dict) -> None:
        """Rebuild, re-arming the retry timer without firing it."""
        from repro.checkpoint.codec import decode_endpoint, decode_kin_info

        self.cancel_retry()
        self._kin = None if state["kin"] is None else decode_kin_info(state["kin"])
        raw_since = state["orphan_since"]
        self._orphan_since = None if raw_since is None else float(raw_since)
        pending = state["pending"]
        self._pending = (
            None if pending is None else (str(pending[0]), decode_endpoint(pending[1]))
        )
        self._reason = str(state["reason"])
        self._attempt = int(state["attempt"])
        if state["retry"] is not None:
            self._retry = self._agent.sim.restore_event(state["retry"], self._on_retry)
        self.repair_durations = [float(d) for d in state["repairs"]]
        for f in fields(self.stats):
            setattr(self.stats, f.name, int(state["stats"][f.name]))
