"""The user portal (§3.2, Fig. 6).

"A portal has been developed which allows users to submit requests destined
for the grid resources.  A user is required to specify the details of the
application, the requirements and contact information for each request."

The portal assigns globally unique request ids, wraps each submission in a
:class:`~repro.net.payloads.RequestEnvelope`, sends it to the chosen agent
over the transport, and collects :class:`~repro.net.payloads.TaskResult`
messages posted back when execution finishes (standing in for the paper's
result e-mails).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.agents.resilience import MAX_RETRIES, ResilienceConfig, timeout_for
from repro.errors import AgentError, TransportError
from repro.net.message import Endpoint, Message, MessageKind
from repro.net.payloads import RequestEnvelope, TaskResult
from repro.net.transport import Transport
from repro.pace.application import ApplicationModel
from repro.sim.events import Event, Priority
from repro.tasks.task import Environment, TaskRequest

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.obs.trace import Tracer

__all__ = ["UserPortal", "PortalStats"]


@dataclass
class PortalStats:
    """Counters for the portal's submission activity.

    All resilience counters stay zero when the resilience layer is
    disabled (the default).
    """

    acks_received: int = 0
    retries: int = 0
    gave_up: int = 0
    duplicate_results: int = 0
    submit_failures: int = 0


@dataclass
class _PendingSubmit:
    """One submitted request awaiting its entry agent's ACK.

    Also reused for backoff redispatches, where *attempt* is the attempt
    number the pending ``portal-redispatch`` event will dispatch with.
    """

    target: Endpoint
    attempt: int
    handle: Event


class UserPortal:
    """Submits requests to agents and gathers their results.

    ``submitted_count`` (requests sent so far) and ``pending_count``
    (requests still awaiting a result) are plain attributes, read-only by
    convention: every run driver polls them after every event, so the
    portal keeps them as counters in :meth:`submit`, when a request's
    first result is recorded, and in :meth:`restore_state`.

    Parameters
    ----------
    transport:
        The grid's message transport.
    sim:
        The discrete-event engine (for submit timestamps).
    endpoint:
        This portal's transport identity.
    email:
        Contact string recorded in outgoing requests.
    """

    def __init__(
        self,
        transport: Transport,
        sim,
        *,
        endpoint: Endpoint = Endpoint("portal.grid", 8000),
        email: str = "user@portal.grid",
        resilience: ResilienceConfig = ResilienceConfig(),
        tracer: Optional[Tracer] = None,
    ) -> None:
        self._tracer = tracer
        self._transport = transport
        self._sim = sim
        self._endpoint = endpoint
        self._email = email
        self._resilience = resilience
        self._next_request_id = 0
        self._submitted: Dict[int, RequestEnvelope] = {}
        self._results: Dict[int, TaskResult] = {}
        self.submitted_count = 0
        self.pending_count = 0
        # Result observers (e.g. a workflow coordinator releasing
        # children); called after a result is stored or upgraded.
        self._result_listeners: List = []
        self._pending: Dict[int, _PendingSubmit] = {}
        self._redispatches: Dict[int, _PendingSubmit] = {}
        self._stats = PortalStats()
        transport.register(endpoint, self._handle_message)

    # ------------------------------------------------------------------ state

    @property
    def endpoint(self) -> Endpoint:
        """The portal's transport identity."""
        return self._endpoint

    @property
    def results(self) -> Dict[int, TaskResult]:
        """Results received so far, by request id (copy)."""
        return dict(self._results)

    @property
    def stats(self) -> PortalStats:
        """Submission/resilience counters."""
        return self._stats

    def result(self, request_id: int) -> Optional[TaskResult]:
        """The result for *request_id*, or ``None`` if still pending."""
        return self._results.get(request_id)

    def add_result_listener(self, listener) -> None:
        """Call *listener(result)* whenever a result is stored or upgraded.

        Listeners run after the portal's own bookkeeping, in registration
        order; a workflow coordinator uses this to release children when
        their parents complete.
        """
        self._result_listeners.append(listener)

    def envelope(self, request_id: int) -> RequestEnvelope:
        """The envelope submitted under *request_id*."""
        try:
            return self._submitted[request_id]
        except KeyError:
            raise AgentError(f"no request {request_id} submitted") from None

    def successes(self) -> List[TaskResult]:
        """Results of successfully executed requests."""
        return [r for r in self._results.values() if r.success]

    def failures(self) -> List[TaskResult]:
        """Results of rejected requests."""
        return [r for r in self._results.values() if not r.success]

    # ----------------------------------------------------------------- submit

    def submit(
        self,
        target,
        application: ApplicationModel,
        environment: Environment,
        deadline: float,
        *,
        workflow=None,
    ) -> int:
        """Submit one request to *target*; returns the request id.

        *target* is anything with a transport ``endpoint``, normally a
        grid :class:`~repro.agents.agent.Agent`.  *deadline* is absolute
        virtual time (δ_r of Fig. 6).
        """
        now = self._sim.now
        request = TaskRequest(
            application=application,
            environment=environment,
            deadline=deadline,
            submit_time=now,
            email=self._email,
            origin=getattr(target, "name", str(target.endpoint)),
            workflow=workflow,
        )
        request_id = self._next_request_id
        self._next_request_id += 1
        envelope = RequestEnvelope(
            request_id=request_id, request=request, reply_to=self._endpoint
        )
        self._submitted[request_id] = envelope
        self.submitted_count += 1
        self.pending_count += 1
        if self._tracer is not None:
            from repro.obs.records import PortalSubmitted

            self._tracer.emit(
                PortalSubmitted(
                    t=now,
                    request_id=request_id,
                    agent=request.origin,
                    application=application.name,
                    deadline=deadline,
                )
            )
        self._dispatch(request_id, target.endpoint, attempt=0)
        return request_id

    def _dispatch(self, request_id: int, target: Endpoint, attempt: int) -> None:
        """Send (or re-send) a submitted request to its entry agent.

        With resilience disabled this is a plain send and a dead entry
        agent raises :class:`TransportError` to the caller, exactly as
        before.  With resilience enabled, send failures and missing ACKs
        both feed the retry machinery, and an exhausted request resolves
        to a synthetic failure result instead of hanging forever.
        """
        envelope = self._submitted[request_id]
        message = Message(
            MessageKind.REQUEST, self._endpoint, target, payload=envelope
        )
        if not self._resilience.enabled:
            self._transport.send(message)
            return
        try:
            self._transport.send(message)
        except TransportError:
            # Entry agent crashed: wait out a backoff (it may restart)
            # before trying again.
            self._stats.submit_failures += 1
            self._retry_or_fail(
                request_id, target, attempt, delay=timeout_for(attempt)
            )
            return
        handle = self._sim.schedule_in(
            timeout_for(attempt),
            lambda: self._on_ack_timeout(request_id),
            priority=Priority.MONITORING,
            label=f"portal-ack-{request_id}",
        )
        self._pending[request_id] = _PendingSubmit(target, attempt, handle)

    def _on_ack_timeout(self, request_id: int) -> None:
        pending = self._pending.pop(request_id, None)
        if pending is None or request_id in self._results:
            return
        self._retry_or_fail(request_id, pending.target, pending.attempt, delay=0.0)

    def _retry_or_fail(
        self, request_id: int, target: Endpoint, attempt: int, delay: float
    ) -> None:
        next_attempt = attempt + 1
        if next_attempt > MAX_RETRIES:
            self._stats.gave_up += 1
            self._record_result(self._failure_result(request_id), synthetic=True)
            return
        self._stats.retries += 1
        if self._tracer is not None:
            from repro.obs.records import PortalRetry

            self._tracer.emit(
                PortalRetry(
                    t=self._sim.now,
                    request_id=request_id,
                    attempt=next_attempt,
                )
            )
        if delay > 0:
            handle = self._sim.schedule_in(
                delay,
                lambda: self._redispatch(request_id, target, next_attempt),
                priority=Priority.MONITORING,
                label=f"portal-redispatch-{request_id}",
            )
            self._redispatches[request_id] = _PendingSubmit(
                target, next_attempt, handle
            )
        else:
            self._dispatch(request_id, target, next_attempt)

    def _redispatch(self, request_id: int, target: Endpoint, attempt: int) -> None:
        self._redispatches.pop(request_id, None)
        if request_id in self._results:
            return  # resolved while the backoff timer ran
        self._dispatch(request_id, target, attempt)

    def _failure_result(self, request_id: int) -> TaskResult:
        envelope = self._submitted[request_id]
        request = envelope.request
        return TaskResult(
            request_id=request_id,
            application=request.application.name,
            success=False,
            submit_time=request.submit_time,
            deadline=request.deadline,
            trace=envelope.trace,
        )

    def request_document(self, request_id: int) -> str:
        """The Fig. 6 XML document for a submitted request (for tracing)."""
        from repro.net.xmlio import request_to_xml

        envelope = self.envelope(request_id)
        request = envelope.request
        return request_to_xml(
            {
                "name": request.application.name,
                "binary_file": f"/grid/binary/{request.application.name}",
                "input_file": f"/grid/binary/input.{request_id}",
                "model_name": f"/grid/model/{request.application.name}",
                "environment": request.environment.value,
                "deadline": request.deadline,
                "email": request.email,
            }
        )

    # ------------------------------------------------------------- checkpoint

    def snapshot_state(self) -> dict:
        """Every submission, result, and pending timer, JSON-ready.

        Resolved-but-still-armed redispatch events are serialized too:
        the uninterrupted run fires them as no-ops, and a resumed run
        must fire the same events to keep the engine's event accounting
        identical.
        """
        from repro.checkpoint.codec import (
            encode_endpoint,
            encode_envelope,
            encode_task_result,
        )

        def encode_timers(timers: Dict[int, _PendingSubmit]) -> list:
            return [
                {
                    "request_id": rid,
                    "target": encode_endpoint(p.target),
                    "attempt": p.attempt,
                    "event": p.handle.descriptor(),
                }
                for rid, p in sorted(timers.items())
                if not p.handle.cancelled
            ]

        return {
            "next_request_id": self._next_request_id,
            "submitted": [
                [rid, encode_envelope(env)]
                for rid, env in sorted(self._submitted.items())
            ],
            "results": [
                [rid, encode_task_result(result)]
                for rid, result in sorted(self._results.items())
            ],
            "pending": encode_timers(self._pending),
            "redispatches": encode_timers(self._redispatches),
            "stats": {f.name: getattr(self._stats, f.name) for f in fields(self._stats)},
        }

    def restore_state(self, state: dict, *, applications) -> None:
        """Rebuild submissions and re-arm ACK/backoff timers from a snapshot.

        *applications* maps application names to their
        :class:`~repro.pace.application.ApplicationModel` instances in the
        rebuilt grid, so decoded requests share model identity with the
        schedulers that will evaluate them.
        """
        from repro.checkpoint.codec import (
            decode_endpoint,
            decode_envelope,
            decode_task_result,
        )

        self._next_request_id = int(state["next_request_id"])
        self._submitted = {
            int(rid): decode_envelope(env, applications)
            for rid, env in state["submitted"]
        }
        self._results = {
            int(rid): decode_task_result(result) for rid, result in state["results"]
        }
        self.submitted_count = len(self._submitted)
        self.pending_count = len(self._submitted) - len(self._results)
        for p in self._pending.values():
            p.handle.cancel()
        self._pending = {}
        for entry in state["pending"]:
            rid = int(entry["request_id"])
            handle = self._sim.restore_event(
                entry["event"], lambda r=rid: self._on_ack_timeout(r)
            )
            self._pending[rid] = _PendingSubmit(
                decode_endpoint(entry["target"]), int(entry["attempt"]), handle
            )
        for p in self._redispatches.values():
            p.handle.cancel()
        self._redispatches = {}
        for entry in state["redispatches"]:
            rid = int(entry["request_id"])
            target = decode_endpoint(entry["target"])
            attempt = int(entry["attempt"])
            handle = self._sim.restore_event(
                entry["event"],
                lambda r=rid, t=target, a=attempt: self._redispatch(r, t, a),
            )
            self._redispatches[rid] = _PendingSubmit(target, attempt, handle)
        stats = state["stats"]
        for f in fields(self._stats):
            setattr(self._stats, f.name, int(stats[f.name]))

    # --------------------------------------------------------------- messages

    def _handle_message(self, message: Message) -> None:
        if message.kind is MessageKind.ACK:
            self._stats.acks_received += 1
            pending = self._pending.get(message.payload)
            # Ignore a late ACK from a prior attempt's target.
            if pending is not None and pending.target == message.sender:
                pending.handle.cancel()
                del self._pending[message.payload]
            return
        if message.kind is not MessageKind.RESULT:
            raise AgentError(
                f"portal cannot handle {message.kind.value!r} messages"
            )
        result = message.payload
        if not isinstance(result, TaskResult):
            raise AgentError(f"bad RESULT payload: {type(result).__name__}")
        if result.request_id not in self._submitted:
            raise AgentError(f"result for unknown request {result.request_id}")
        self._record_result(result)

    def _record_result(self, result: TaskResult, *, synthetic: bool = False) -> None:
        pending = self._pending.pop(result.request_id, None)
        if pending is not None:
            pending.handle.cancel()
        existing = self._results.get(result.request_id)
        if existing is None:
            self._results[result.request_id] = result
            self.pending_count -= 1
            self._trace_result(result, synthetic)
            self._notify_result(result)
            return
        # At-least-once delivery means a request can execute (or resolve)
        # twice; keep the first result, but let a real success overwrite a
        # synthetic/routing failure.
        self._stats.duplicate_results += 1
        if not existing.success and result.success:
            self._results[result.request_id] = result
            self._trace_result(result, synthetic)
            self._notify_result(result)

    def _notify_result(self, result: TaskResult) -> None:
        for listener in self._result_listeners:
            listener(result)

    def _trace_result(self, result: TaskResult, synthetic: bool) -> None:
        if self._tracer is not None:
            from repro.obs.records import PortalResult

            self._tracer.emit(
                PortalResult(
                    t=self._sim.now,
                    request_id=result.request_id,
                    success=result.success,
                    synthetic=synthetic,
                )
            )
