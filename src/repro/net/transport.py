"""In-memory message transport over the simulation engine.

Replaces the original system's TCP sockets (see DESIGN.md §2): endpoints
register a handler under their (address, port) identity; ``send`` delivers
the message through the discrete-event engine with no base latency,
matching the paper's LAN-scale deployment where network delay is
negligible against 1-second request intervals.  Only a bulk payload's
serialisation delay and the fault plan's jitter postpone a delivery.

Delivery is asynchronous even at zero latency — the handler runs in its own
event — so agent logic never re-enters itself, exactly like a real
single-threaded message loop.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import TransportError, ValidationError
from repro.net.message import Endpoint, Message
from repro.sim.engine import Engine
from repro.sim.events import Event, Priority

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.net.faults import FaultPlan
    from repro.obs.records import MessageDropped
    from repro.obs.trace import Tracer

__all__ = ["Transport", "DROP_RING_SIZE"]

Handler = Callable[[Message], None]

#: How many recently dropped messages are retained for debugging.  Drops
#: are *counted* without bound; only the message objects are ring-buffered
#: (a long churny run used to accumulate every dropped Message forever).
DROP_RING_SIZE = 32


class Transport:
    """Routes messages between registered endpoints via the sim engine.

    Parameters
    ----------
    sim:
        The discrete-event engine.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; when set, every send,
        delivery, and drop (with fault attribution) is recorded.

    A :class:`~repro.net.faults.FaultPlan` is installed with
    :meth:`set_fault_plan`; without one the transport is faultless (the
    seed behaviour).
    """

    def __init__(self, sim: Engine, *, tracer: Optional[Tracer] = None) -> None:
        self._sim = sim
        self._fault_plan: Optional[FaultPlan] = None
        self._handlers: Dict[Endpoint, Handler] = {}
        self._sent = 0
        self._delivered = 0
        self._dropped_count = 0
        self._fault_dropped_count = 0
        self._drop_ring: Deque[Message] = deque(maxlen=DROP_RING_SIZE)
        self._tracer = tracer
        # One bound method shared by every delivery event instead of a
        # fresh one per send: each is a GC-tracked allocation, and fewer
        # allocations per message mean fewer garbage collections.  It
        # also marks the transport's own events on the engine's queues:
        # a delivery's callback is ``partial(_deliver_hook, message)``.
        self._deliver_hook = self._deliver

    # ------------------------------------------------------------------ state

    @property
    def sent(self) -> int:
        """Messages accepted for delivery."""
        return self._sent

    @property
    def delivered(self) -> int:
        """Messages handed to handlers."""
        return self._delivered

    @property
    def dropped_count(self) -> int:
        """Total messages dropped because their endpoint was unregistered."""
        return self._dropped_count

    @property
    def fault_dropped_count(self) -> int:
        """Total messages dropped by the installed fault plan."""
        return self._fault_dropped_count

    @property
    def fault_plan(self) -> Optional[FaultPlan]:
        """The installed fault plan, if any."""
        return self._fault_plan

    def set_fault_plan(self, plan: Optional[FaultPlan]) -> None:
        """Install (or clear) the fault plan consulted on every send."""
        self._fault_plan = plan

    # -------------------------------------------------------------- lifecycle

    def register(self, endpoint: Endpoint, handler: Handler) -> None:
        """Bind *handler* to *endpoint*; rebinding an endpoint is an error."""
        if endpoint in self._handlers:
            raise TransportError(f"endpoint {endpoint} already registered")
        self._handlers[endpoint] = handler

    def unregister(self, endpoint: Endpoint) -> None:
        """Remove an endpoint; in-flight messages to it will be dropped."""
        if endpoint not in self._handlers:
            raise TransportError(f"endpoint {endpoint} not registered")
        del self._handlers[endpoint]

    def is_registered(self, endpoint: Endpoint) -> bool:
        """Whether *endpoint* currently has a handler."""
        return endpoint in self._handlers

    # ------------------------------------------------------------------- send

    def send(self, message: Message, *, extra_latency: float = 0.0) -> None:
        """Queue *message* for delivery after *extra_latency* seconds.

        Parameters
        ----------
        message:
            The message to deliver.
        extra_latency:
            Seconds this one message spends on the wire — the
            serialisation delay of a bulk payload (workflow data staging
            charges ``size / bandwidth`` here).  Fault-plan jitter stacks
            on top.

        Raises
        ------
        TransportError
            If the recipient endpoint is not registered at send time.
        """
        if extra_latency < 0:
            raise ValidationError(
                f"extra_latency must be >= 0, got {extra_latency!r}"
            )
        if message.recipient not in self._handlers:
            raise TransportError(
                f"no endpoint registered at {message.recipient} "
                f"(message {message.kind.value} from {message.sender})"
            )
        self._sent += 1
        if self._tracer is not None:
            from repro.obs.records import MessageSent

            self._tracer.emit(
                MessageSent(
                    t=self._sim.now,
                    msg=message.kind.value,
                    sender=str(message.sender),
                    recipient=str(message.recipient),
                    hops=message.hops,
                )
            )
        if self._fault_plan is not None:
            verdict = self._fault_plan.on_send(message, self._sim.now)
            if verdict.drop:
                # Silent loss: the sender believes the send succeeded —
                # exactly the failure mode ack timeouts exist to detect.
                self._fault_dropped_count += 1
                self._drop_ring.append(message)
                if self._tracer is not None:
                    self._tracer.emit(self._drop_record(message, verdict.reason))
                return
            extra_latency += verdict.extra_latency
        self._sim.schedule_in(
            extra_latency,
            partial(self._deliver_hook, message),
            priority=Priority.DEFAULT,
            label=message.kind.label,
        )

    def _deliver(self, message: Message) -> None:
        handler = self._handlers.get(message.recipient)
        if handler is None:
            self._dropped_count += 1
            self._drop_ring.append(message)
            if self._tracer is not None:
                self._tracer.emit(self._drop_record(message, "unregistered"))
            return
        self._delivered += 1
        if self._tracer is not None:
            from repro.obs.records import MessageDelivered

            self._tracer.emit(
                MessageDelivered(
                    t=self._sim.now,
                    msg=message.kind.value,
                    sender=str(message.sender),
                    recipient=str(message.recipient),
                    hops=message.hops,
                )
            )
        handler(message)

    def _drop_record(self, message: Message, reason: str) -> MessageDropped:
        from repro.obs.records import MessageDropped

        return MessageDropped(
            t=self._sim.now,
            msg=message.kind.value,
            sender=str(message.sender),
            recipient=str(message.recipient),
            hops=message.hops,
            reason=reason,
        )

    # ------------------------------------------------------------- checkpoint

    def _in_flight(self) -> List[Tuple[Message, Event]]:
        """Messages accepted by :meth:`send` whose delivery has not fired,
        with their delivery events, by message id.

        Derived from the engine's queues rather than kept on every send:
        only checkpoints read it.
        """
        deliver = self._deliver_hook
        in_flight = []
        for event in self._sim.queued():
            callback = event.callback
            if type(callback) is partial and callback.func is deliver:
                in_flight.append((callback.args[0], event))
        in_flight.sort(key=lambda pair: pair[0].message_id)
        return in_flight

    def snapshot_state(self) -> dict:
        """Counters, the drop ring, in-flight messages, and fault attribution.

        Endpoint registrations are *not* serialised — they are re-created by
        rebuilding the grid (and adjusted by each agent's own restore for
        crashed agents).  The fault plan's RNG position is covered by the
        run's :class:`~repro.utils.rng.RngRegistry` snapshot.
        """
        from repro.checkpoint.codec import encode_message

        state = {
            "sent": self._sent,
            "delivered": self._delivered,
            "dropped_count": self._dropped_count,
            "fault_dropped_count": self._fault_dropped_count,
            "drop_ring": [encode_message(m) for m in self._drop_ring],
            "in_flight": [
                {
                    "message": encode_message(message),
                    "event": event.descriptor(),
                }
                for message, event in self._in_flight()
            ],
        }
        if self._fault_plan is not None:
            state["fault_plan"] = {
                "dropped_by_chance": self._fault_plan.dropped_by_chance,
                "dropped_by_partition": self._fault_plan.dropped_by_partition,
                "jittered": self._fault_plan.jittered,
            }
        return state

    def restore_state(self, state: dict, *, applications) -> None:
        """Rewind counters and re-create every in-flight delivery event.

        *applications* maps application names to the rebuilt grid's
        :class:`~repro.pace.application.ApplicationModel` instances, so
        in-flight REQUEST payloads share model identity with the
        schedulers that will evaluate them.
        """
        from repro.checkpoint.codec import decode_message

        self._sent = int(state["sent"])
        self._delivered = int(state["delivered"])
        self._dropped_count = int(state["dropped_count"])
        self._fault_dropped_count = int(state["fault_dropped_count"])
        self._drop_ring.clear()
        for raw in state["drop_ring"]:
            self._drop_ring.append(decode_message(raw, applications))
        for _, event in self._in_flight():
            event.cancel()
        for entry in state["in_flight"]:
            # The callback has send()'s shape, so the next snapshot finds
            # the restored delivery as well.
            message = decode_message(entry["message"], applications)
            self._sim.restore_event(
                entry["event"], partial(self._deliver_hook, message)
            )
        plan_state = state.get("fault_plan")
        if plan_state is not None and self._fault_plan is not None:
            self._fault_plan.dropped_by_chance = int(plan_state["dropped_by_chance"])
            self._fault_plan.dropped_by_partition = int(
                plan_state["dropped_by_partition"]
            )
            self._fault_plan.jittered = int(plan_state["jittered"])
