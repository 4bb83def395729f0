"""JSON encoders/decoders for the domain objects a snapshot contains.

Every ``encode_*`` returns plain JSON-serialisable values (dicts, lists,
strings, numbers, ``None``); the matching ``decode_*`` rebuilds the live
object.  Application models are referenced **by name** — a snapshot never
embeds model internals.  Decoders take an ``applications`` mapping
(name → :class:`~repro.pace.application.ApplicationModel`) built from the
rebuilt grid, so restored requests share model *identity* with the
schedulers that will evaluate them.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.errors import CheckpointError
from repro.net.message import Endpoint, Message, MessageKind
from repro.net.payloads import (
    BidInfo,
    KinInfo,
    RequestEnvelope,
    ReservationGrant,
    ServiceInfo,
    TaskResult,
    TransferPayload,
)
from repro.tasks.task import Environment, Task, TaskRequest, TaskState, WorkflowBinding

__all__ = [
    "encode_endpoint",
    "decode_endpoint",
    "encode_ndarray",
    "decode_ndarray",
    "encode_task_request",
    "decode_task_request",
    "encode_envelope",
    "decode_envelope",
    "encode_task_result",
    "decode_task_result",
    "encode_service_info",
    "decode_service_info",
    "encode_kin_info",
    "decode_kin_info",
    "encode_bid_info",
    "decode_bid_info",
    "encode_reservation_grant",
    "decode_reservation_grant",
    "encode_message",
    "decode_message",
    "encode_task",
    "decode_task",
]

Applications = Dict[str, Any]


# ------------------------------------------------------------------ primitives


def encode_endpoint(endpoint: Endpoint) -> List[Any]:
    """``Endpoint`` → ``[address, port]``."""
    return [endpoint.address, endpoint.port]


def decode_endpoint(data: List[Any]) -> Endpoint:
    """``[address, port]`` → ``Endpoint``."""
    return Endpoint(str(data[0]), int(data[1]))


def encode_ndarray(array: np.ndarray) -> Dict[str, Any]:
    """Dtype, shape, and row-major values — exact for int/bool/float64."""
    return {
        "dtype": str(array.dtype),
        "shape": list(array.shape),
        "data": array.ravel(order="C").tolist(),
    }


def decode_ndarray(data: Dict[str, Any]) -> np.ndarray:
    """Inverse of :func:`encode_ndarray`."""
    return np.array(data["data"], dtype=np.dtype(data["dtype"])).reshape(
        tuple(data["shape"])
    )


def _lookup_application(name: str, applications: Applications):
    try:
        return applications[name]
    except KeyError:
        raise CheckpointError(
            f"snapshot references unknown application {name!r}; "
            f"the rebuilt grid knows {sorted(applications)}"
        ) from None


# -------------------------------------------------------------------- payloads


def encode_task_request(request: TaskRequest) -> Dict[str, Any]:
    """``TaskRequest`` with the application referenced by name.

    The ``workflow`` key appears only when the request carries a binding,
    so independent-task snapshots stay byte-identical to pre-workflow
    ones.
    """
    out = {
        "application": request.application.name,
        "environment": request.environment.value,
        "deadline": request.deadline,
        "submit_time": request.submit_time,
        "email": request.email,
        "origin": request.origin,
    }
    if request.workflow is not None:
        binding = request.workflow
        out["workflow"] = {
            "workflow_id": binding.workflow_id,
            "node": binding.node,
            "priority": binding.priority,
            "inputs": [list(triple) for triple in binding.inputs],
        }
    return out


def decode_task_request(data: Dict[str, Any], applications: Applications) -> TaskRequest:
    """Inverse of :func:`encode_task_request`."""
    raw_binding = data.get("workflow")
    binding = None
    if raw_binding is not None:
        binding = WorkflowBinding(
            workflow_id=int(raw_binding["workflow_id"]),
            node=str(raw_binding["node"]),
            priority=float(raw_binding["priority"]),
            inputs=tuple(
                (str(p), str(src), float(size))
                for p, src, size in raw_binding["inputs"]
            ),
        )
    return TaskRequest(
        application=_lookup_application(str(data["application"]), applications),
        environment=Environment(data["environment"]),
        deadline=float(data["deadline"]),
        submit_time=float(data["submit_time"]),
        email=str(data["email"]),
        origin=str(data["origin"]),
        workflow=binding,
    )


def encode_envelope(envelope: RequestEnvelope) -> Dict[str, Any]:
    """``RequestEnvelope`` → dict (trace tuple becomes a list)."""
    return {
        "request_id": envelope.request_id,
        "request": encode_task_request(envelope.request),
        "reply_to": encode_endpoint(envelope.reply_to),
        "trace": list(envelope.trace),
    }


def decode_envelope(data: Dict[str, Any], applications: Applications) -> RequestEnvelope:
    """Inverse of :func:`encode_envelope`."""
    return RequestEnvelope(
        request_id=int(data["request_id"]),
        request=decode_task_request(data["request"], applications),
        reply_to=decode_endpoint(data["reply_to"]),
        trace=tuple(str(s) for s in data["trace"]),
    )


def encode_task_result(result: TaskResult) -> Dict[str, Any]:
    """``TaskResult`` → dict (application already a name string)."""
    return {
        "request_id": result.request_id,
        "application": result.application,
        "success": result.success,
        "resource_name": result.resource_name,
        "submit_time": result.submit_time,
        "start_time": result.start_time,
        "completion_time": result.completion_time,
        "deadline": result.deadline,
        "trace": list(result.trace),
    }


def decode_task_result(data: Dict[str, Any]) -> TaskResult:
    """Inverse of :func:`encode_task_result`."""
    return TaskResult(
        request_id=int(data["request_id"]),
        application=str(data["application"]),
        success=bool(data["success"]),
        resource_name=str(data["resource_name"]),
        submit_time=float(data["submit_time"]),
        start_time=float(data["start_time"]),
        completion_time=float(data["completion_time"]),
        deadline=float(data["deadline"]),
        trace=tuple(str(s) for s in data["trace"]),
    )


def encode_service_info(info: ServiceInfo) -> Dict[str, Any]:
    """``ServiceInfo`` (Fig. 5 record) → dict."""
    return {
        "agent_endpoint": encode_endpoint(info.agent_endpoint),
        "scheduler_endpoint": encode_endpoint(info.scheduler_endpoint),
        "hardware_type": info.hardware_type,
        "nproc": info.nproc,
        "environments": [e.value for e in info.environments],
        "freetime": info.freetime,
    }


def decode_service_info(data: Dict[str, Any]) -> ServiceInfo:
    """Inverse of :func:`encode_service_info`."""
    return ServiceInfo(
        agent_endpoint=decode_endpoint(data["agent_endpoint"]),
        scheduler_endpoint=decode_endpoint(data["scheduler_endpoint"]),
        hardware_type=str(data["hardware_type"]),
        nproc=int(data["nproc"]),
        environments=tuple(Environment(e) for e in data["environments"]),
        freetime=float(data["freetime"]),
    )


# -------------------------------------------------------------------- messages


def encode_kin_info(kin: KinInfo) -> Dict[str, Any]:
    """``KinInfo`` → dict of (name, endpoint) pairs (membership layer)."""
    return {
        "parent": kin.parent,
        "grandparent": (
            None
            if kin.grandparent is None
            else [kin.grandparent[0], encode_endpoint(kin.grandparent[1])]
        ),
        "siblings": [
            [name, encode_endpoint(endpoint)] for name, endpoint in kin.siblings
        ],
    }


def decode_kin_info(data: Dict[str, Any]) -> KinInfo:
    """Inverse of :func:`encode_kin_info`."""
    grandparent = data["grandparent"]
    return KinInfo(
        parent=str(data["parent"]),
        grandparent=(
            None
            if grandparent is None
            else (str(grandparent[0]), decode_endpoint(grandparent[1]))
        ),
        siblings=tuple(
            (str(name), decode_endpoint(endpoint))
            for name, endpoint in data["siblings"]
        ),
    )


def encode_bid_info(bid: BidInfo) -> Dict[str, Any]:
    """``BidInfo`` → dict (auction policy layer)."""
    return {
        "request_id": bid.request_id,
        "eta": bid.eta,
        "supported": bid.supported,
    }


def decode_bid_info(data: Dict[str, Any]) -> BidInfo:
    """Inverse of :func:`encode_bid_info`."""
    return BidInfo(
        request_id=int(data["request_id"]),
        eta=float(data["eta"]),
        supported=bool(data["supported"]),
    )


def encode_reservation_grant(grant: ReservationGrant) -> Dict[str, Any]:
    """``ReservationGrant`` → dict (reservation policy layer)."""
    return {
        "request_id": grant.request_id,
        "start": grant.start,
        "end": grant.end,
    }


def decode_reservation_grant(data: Dict[str, Any]) -> ReservationGrant:
    """Inverse of :func:`encode_reservation_grant`."""
    return ReservationGrant(
        request_id=int(data["request_id"]),
        start=float(data["start"]),
        end=float(data["end"]),
    )


def _encode_payload(payload: Any) -> Dict[str, Any]:
    if payload is None:
        return {"type": "none", "data": None}
    if isinstance(payload, bool):
        raise CheckpointError(f"unencodable message payload: {payload!r}")
    if isinstance(payload, int):
        return {"type": "int", "data": payload}
    if isinstance(payload, str):
        return {"type": "str", "data": payload}
    if isinstance(payload, KinInfo):
        return {"type": "kin", "data": encode_kin_info(payload)}
    if isinstance(payload, RequestEnvelope):
        return {"type": "envelope", "data": encode_envelope(payload)}
    if isinstance(payload, TaskResult):
        return {"type": "result", "data": encode_task_result(payload)}
    if isinstance(payload, ServiceInfo):
        return {"type": "service_info", "data": encode_service_info(payload)}
    if isinstance(payload, BidInfo):
        return {"type": "bid", "data": encode_bid_info(payload)}
    if isinstance(payload, ReservationGrant):
        return {"type": "grant", "data": encode_reservation_grant(payload)}
    if isinstance(payload, TransferPayload):
        return {
            "type": "transfer",
            "data": {
                "workflow_id": payload.workflow_id,
                "node": payload.node,
                "parent": payload.parent,
                "source": payload.source,
                "size": payload.size,
                "task_id": payload.task_id,
            },
        }
    raise CheckpointError(
        f"unencodable message payload type {type(payload).__name__!r}"
    )


def _decode_payload(data: Dict[str, Any], applications: Applications) -> Any:
    kind = data["type"]
    if kind == "none":
        return None
    if kind == "int":
        return int(data["data"])
    if kind == "str":
        return str(data["data"])
    if kind == "kin":
        return decode_kin_info(data["data"])
    if kind == "envelope":
        return decode_envelope(data["data"], applications)
    if kind == "result":
        return decode_task_result(data["data"])
    if kind == "service_info":
        return decode_service_info(data["data"])
    if kind == "bid":
        return decode_bid_info(data["data"])
    if kind == "grant":
        return decode_reservation_grant(data["data"])
    if kind == "transfer":
        raw = data["data"]
        return TransferPayload(
            workflow_id=int(raw["workflow_id"]),
            node=str(raw["node"]),
            parent=str(raw["parent"]),
            source=str(raw["source"]),
            size=float(raw["size"]),
            task_id=int(raw["task_id"]),
        )
    raise CheckpointError(f"unknown message payload tag {kind!r}")


def encode_message(message: Message) -> Dict[str, Any]:
    """``Message`` → dict with a tagged payload union."""
    return {
        "kind": message.kind.value,
        "sender": encode_endpoint(message.sender),
        "recipient": encode_endpoint(message.recipient),
        "payload": _encode_payload(message.payload),
        "hops": message.hops,
    }


def decode_message(data: Dict[str, Any], applications: Applications) -> Message:
    """Inverse of :func:`encode_message`."""
    return Message(
        kind=MessageKind(data["kind"]),
        sender=decode_endpoint(data["sender"]),
        recipient=decode_endpoint(data["recipient"]),
        payload=_decode_payload(data["payload"], applications),
        hops=int(data["hops"]),
    )


# ----------------------------------------------------------------------- tasks


def encode_task(task: Task) -> Dict[str, Any]:
    """``Task`` → dict covering id, request, state, and placement."""
    nodes: Optional[List[int]] = (
        None if task.allocated_nodes is None else list(task.allocated_nodes)
    )
    return {
        "task_id": task.task_id,
        "request": encode_task_request(task.request),
        "state": task.state.name,
        "allocated_nodes": nodes,
        "start_time": task.start_time,
        "completion_time": task.completion_time,
        "resource_name": task.resource_name,
    }


def decode_task(data: Dict[str, Any], applications: Applications) -> Task:
    """Inverse of :func:`encode_task`.

    Private attributes are set directly: lifecycle transitions validate
    *changes*, but a restore re-materialises a past state verbatim.
    """
    task = Task(int(data["task_id"]), decode_task_request(data["request"], applications))
    try:
        task._state = TaskState[data["state"]]
    except KeyError:
        raise CheckpointError(f"unknown task state {data['state']!r}") from None
    nodes = data["allocated_nodes"]
    task._allocated_nodes = None if nodes is None else tuple(int(n) for n in nodes)
    start = data["start_time"]
    task._start_time = None if start is None else float(start)
    completion = data["completion_time"]
    task._completion_time = None if completion is None else float(completion)
    resource = data["resource_name"]
    task._resource_name = None if resource is None else str(resource)
    return task
