"""In-memory message transport over the simulation engine.

Replaces the original system's TCP sockets (see DESIGN.md §2): endpoints
register a handler under their (address, port) identity; ``send`` delivers
the message through the discrete-event engine with no base latency,
matching the paper's LAN-scale deployment where network delay is
negligible against 1-second request intervals.  Only a bulk payload's
serialisation delay and the fault plan's jitter postpone a delivery.

Delivery is asynchronous even at zero latency — the handler runs in a
later event than the send — so agent logic never re-enters itself, exactly
like a real single-threaded message loop.  A message is delivered by an
event of its own, or, when it was sent while a *batch* was open, by the
batch's one event, which runs the batch's handlers in send order
(:meth:`Transport.open_batch`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.errors import SimulationError, TransportError, ValidationError
from repro.net.message import Endpoint, Message
from repro.sim.engine import Engine
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.net.faults import FaultPlan
    from repro.obs.records import MessageDropped
    from repro.obs.trace import Tracer

__all__ = ["Transport"]

Handler = Callable[[Message], None]


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
        self._tracer = tracer
        # One bound method shared by every delivery event instead of a
        # fresh one per send: each is a GC-tracked allocation, and fewer
        # allocations per message mean fewer garbage collections.  A
        # delivery is one event whose callback is this hook and whose
        # argument is the message, which also marks the transport's own
        # events on the engine's queues.
        self._deliver_hook = self._deliver
        # The open batch's zero-delay messages in send order, or None.
        self._batch: Optional[List[Message]] = None
        # The engine's sequence counter at open, plus the delayed
        # deliveries scheduled since: anything else scheduled while the
        # batch is open moves the counter past it.
        self._batch_mark = 0
        self._deliver_batch_hook = self._deliver_batch

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
        ValidationError
            If *extra_latency* is negative or NaN.
        """
        if not extra_latency >= 0:
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
                if self._tracer is not None:
                    self._tracer.emit(self._drop_record(message, verdict.reason))
                return
            extra_latency += verdict.extra_latency
        batch = self._batch
        if batch is not None:
            # A delay below the clock's resolution lands at this instant
            # too; with an event of its own the message would fire before
            # the batch's earlier sends, so it rides the batch instead.
            if (
                extra_latency == 0.0
                or self._sim.now + extra_latency == self._sim.now
            ):
                batch.append(message)
                return
            self._batch_mark += 1
        self._sim.schedule_in(
            extra_latency, self._deliver_hook, label=message.kind.label, arg=message
        )

    # ----------------------------------------------------------------- batch

    def open_batch(self) -> None:
        """Collect zero-delay sends into one delivery event.

        Until :meth:`close_batch`, a send passes every step of
        :meth:`send` (the registration check, the fault plan's verdict,
        the counters and the trace record) and, if it is due at this
        instant, joins the batch instead of getting an event of its own.
        The batch's event delivers its messages in send order, inside a
        new batch, so the answers they provoke travel together too.

        That is exact where the batch's messages would have been
        consecutive same-instant deliveries and their handlers schedule
        nothing but sends, which :meth:`close_batch` checks.
        :class:`~repro.agents.advertisement.PullRounds` batches a round's
        PULLs, whose handlers only answer with an ADVERTISE.
        """
        self._batch = []
        self._batch_mark = self._sim.sequence

    def close_batch(self) -> None:
        """Schedule the open batch's one delivery event, if it has messages.

        Raises
        ------
        SimulationError
            If anything but this transport's delayed deliveries was
            scheduled while the batch was open: the batch is known to be
            exact only where its handlers schedule nothing else.
        """
        batch = self._batch
        self._batch = None
        scheduled = self._sim.sequence - self._batch_mark
        if scheduled:
            raise SimulationError(
                f"{scheduled} event(s) other than delayed deliveries were "
                "scheduled while a batch was open"
            )
        if batch:
            self._sim.schedule_in(
                0.0, self._deliver_batch_hook, label="deliver-batch", arg=batch
            )

    def _deliver_batch(self, messages: List[Message]) -> None:
        self.open_batch()
        deliver = self._deliver
        for message in messages:
            deliver(message)
        self.close_batch()

    def _deliver(self, message: Message) -> None:
        handler = self._handlers.get(message.recipient)
        if handler is None:
            self._dropped_count += 1
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

    def _in_flight(self, hook: Callable) -> List[Event]:
        """The unfired delivery events whose callback is *hook* (one
        message's, or a batch's), by event sequence (unique per engine,
        and kept by :meth:`Engine.restore_event`).

        Derived from the engine's queues rather than kept on every send:
        only checkpoints read it.
        """
        in_flight = [event for event in self._sim.queued() if event.callback is hook]
        in_flight.sort(key=lambda event: event.sequence)
        return in_flight

    def snapshot_state(self) -> dict:
        """Counters and in-flight messages: each pending one-message
        delivery, and each pending batch with its messages in send order.

        Endpoint registrations are *not* serialised — they are re-created by
        rebuilding the grid (and adjusted by each agent's own restore for
        crashed agents).  The fault plan's RNG position is covered by the
        run's :class:`~repro.utils.rng.RngRegistry` snapshot.
        """
        from repro.checkpoint.codec import encode_message

        return {
            "sent": self._sent,
            "delivered": self._delivered,
            "dropped_count": self._dropped_count,
            "fault_dropped_count": self._fault_dropped_count,
            "in_flight": [
                {"message": encode_message(event.arg), "event": event.descriptor()}
                for event in self._in_flight(self._deliver_hook)
            ],
            "batches": [
                {
                    "messages": [encode_message(message) for message in event.arg],
                    "event": event.descriptor(),
                }
                for event in self._in_flight(self._deliver_batch_hook)
            ],
        }

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
        for hook in (self._deliver_hook, self._deliver_batch_hook):
            for event in self._in_flight(hook):
                event.cancel()
        # Each event has send()'s or close_batch()'s shape, so the next
        # snapshot finds the restored deliveries as well.
        for entry in state["in_flight"]:
            self._sim.restore_event(
                entry["event"],
                self._deliver_hook,
                arg=decode_message(entry["message"], applications),
            )
        for entry in state["batches"]:
            self._sim.restore_event(
                entry["event"],
                self._deliver_batch_hook,
                arg=[decode_message(m, applications) for m in entry["messages"]],
            )
