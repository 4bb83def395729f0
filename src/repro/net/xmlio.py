"""XML serialisation matching the paper's templates (Figs. 5–6).

The original agents exchange XML documents; Fig. 5 shows the service-
information template and Fig. 6 the request template.  These functions
produce and parse documents with exactly those element names, so the
formats round-trip; timestamps use the paper's ``ctime`` style via
:mod:`repro.utils.timefmt`.

The functions speak plain dictionaries — the agent layer maps its
dataclasses onto them — keeping this module dependency-free below
:mod:`repro.agents`.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Any, Dict, List

from repro.errors import SerializationError
from repro.utils.timefmt import format_timestamp, parse_timestamp

__all__ = [
    "service_info_to_xml",
    "parse_service_info",
    "request_to_xml",
    "parse_request",
]


def _text(parent: ET.Element, tag: str, value: str) -> ET.Element:
    el = ET.SubElement(parent, tag)
    el.text = value
    return el


def _require(root: ET.Element, path: str) -> str:
    el = root.find(path)
    if el is None or el.text is None:
        raise SerializationError(f"missing element {path!r}")
    return el.text.strip()


def service_info_to_xml(info: Dict[str, Any]) -> str:
    """Render a service-information record as the Fig. 5 document.

    Expected keys: ``agent_address``, ``agent_port``, ``local_address``,
    ``local_port``, ``type``, ``nproc``, ``environments`` (sequence of
    names) and ``freetime`` (virtual seconds).
    """
    try:
        root = ET.Element("agentgrid", {"type": "service"})
        agent = ET.SubElement(root, "agent")
        _text(agent, "address", str(info["agent_address"]))
        _text(agent, "port", str(int(info["agent_port"])))
        local = ET.SubElement(root, "local")
        _text(local, "address", str(info["local_address"]))
        _text(local, "port", str(int(info["local_port"])))
        _text(local, "type", str(info["type"]))
        _text(local, "nproc", str(int(info["nproc"])))
        for env in info["environments"]:
            _text(local, "environment", str(env))
        _text(local, "freetime", format_timestamp(float(info["freetime"])))
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"bad service info record: {exc}") from exc
    return ET.tostring(root, encoding="unicode")


def parse_service_info(document: str) -> Dict[str, Any]:
    """Parse a Fig. 5 document back into a service-information dict."""
    root = _parse_root(document, "service")
    environments: List[str] = [
        el.text.strip()
        for el in root.findall("local/environment")
        if el.text is not None
    ]
    if not environments:
        raise SerializationError("service info lists no environments")
    return {
        "agent_address": _require(root, "agent/address"),
        "agent_port": int(_require(root, "agent/port")),
        "local_address": _require(root, "local/address"),
        "local_port": int(_require(root, "local/port")),
        "type": _require(root, "local/type"),
        "nproc": int(_require(root, "local/nproc")),
        "environments": environments,
        "freetime": parse_timestamp(_require(root, "local/freetime")),
    }


def request_to_xml(request: Dict[str, Any]) -> str:
    """Render an execution request as the Fig. 6 document.

    Expected keys: ``name``, ``binary_file``, ``input_file``,
    ``model_name``, ``environment``, ``deadline`` (virtual seconds) and
    ``email``.
    """
    try:
        root = ET.Element("agentgrid", {"type": "request"})
        app = ET.SubElement(root, "application")
        _text(app, "name", str(request["name"]))
        binary = ET.SubElement(app, "binary")
        _text(binary, "file", str(request["binary_file"]))
        _text(binary, "inputfile", str(request["input_file"]))
        perf = ET.SubElement(app, "performance")
        _text(perf, "datatype", "pacemodel")
        _text(perf, "modelname", str(request["model_name"]))
        req = ET.SubElement(root, "requirement")
        _text(req, "environment", str(request["environment"]))
        _text(req, "deadline", format_timestamp(float(request["deadline"])))
        _text(root, "email", str(request["email"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"bad request record: {exc}") from exc
    return ET.tostring(root, encoding="unicode")


def parse_request(document: str) -> Dict[str, Any]:
    """Parse a Fig. 6 document back into a request dict."""
    root = _parse_root(document, "request")
    datatype = _require(root, "application/performance/datatype")
    if datatype != "pacemodel":
        raise SerializationError(f"unsupported performance datatype {datatype!r}")
    return {
        "name": _require(root, "application/name"),
        "binary_file": _require(root, "application/binary/file"),
        "input_file": _require(root, "application/binary/inputfile"),
        "model_name": _require(root, "application/performance/modelname"),
        "environment": _require(root, "requirement/environment"),
        "deadline": parse_timestamp(_require(root, "requirement/deadline")),
        "email": _require(root, "email"),
    }


def _parse_root(document: str, expected_type: str) -> ET.Element:
    try:
        root = ET.fromstring(document)
    except ET.ParseError as exc:
        raise SerializationError(f"malformed XML: {exc}") from exc
    if root.tag != "agentgrid":
        raise SerializationError(f"unexpected root element {root.tag!r}")
    if root.get("type") != expected_type:
        raise SerializationError(
            f"expected agentgrid type={expected_type!r}, got {root.get('type')!r}"
        )
    return root
