"""The on-disk snapshot format: versioned, checksummed JSONL.

A snapshot file is two lines of JSON:

* **line 1** — the header ``{"format": "repro-checkpoint", "version": 9,
  "sha256": "<hex>"}`` where the digest covers the exact bytes of line 2;
* **line 2** — the payload, serialised canonically (sorted keys, no
  whitespace) so identical state always produces identical bytes.

The header-first layout lets a reader reject a wrong or corrupt file
before parsing a potentially large payload, and the canonical payload
encoding makes snapshot files themselves diffable and digest-stable.

The version changes whenever a snapshot of the old format would restore
into a run that diverges from its uninterrupted twin, or would not restore
at all.  Version 2 marks the single GA generation loop: its RNG stream
differs from the version-1 kernels', so a version-1 snapshot is refused
rather than resumed.  Version 3 marks the single run driver: one payload
layout with a ``mode`` field replaces the three per-kind layouts.
Version 4 drops the per-agent ``outcomes`` list, a log of every routing
decision that nothing read.  Version 5 drops the GA kernel's event-level
cost cache (``cached_costs``, ``cost_cache_key``), which a restored run
drops before reading, and the local scheduler's copies of the kernel's
workflow floors and precedence (``floors``, ``constraints``): the GA
section's ``floors`` and ``preds`` are their one record.  Version 6
marks the shared pull rounds: a periodic-pull strategy records its
round's event descriptor and its position in the round (``round``,
``position``) instead of a per-agent timer (``process``), and the
scheduler's incumbent free times are ``incumbent_free`` (before,
``cached_node_free``: state, not a cache).  Version 7 makes a snapshot a
function of the run alone: the process-wide message counter and the
per-message ids go (in-flight deliveries are listed by event sequence),
and so do the counters only tests read (the transport's ring of dropped
messages and its copy of the fault plan's tallies, a periodic process's
``fired``, a resource monitor's ``polls``).  Version 8 marks batched
deliveries: a pull round's PULLs, and the ADVERTISEs answering them,
are each delivered by one event, so the transport section lists each
pending batch with its messages in send order (``batches``) beside the
one-message deliveries (``in_flight``).  Version 9 makes advertisement one
strategy per grid: the system section records it once
(``advertisement``: periodic pull's pending rounds in event-sequence
order, each with its members' names in fire order), and no agent carries
advertisement state.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict

from repro.errors import CheckpointError

__all__ = ["FORMAT_NAME", "FORMAT_VERSION", "write_snapshot", "read_snapshot"]

FORMAT_NAME = "repro-checkpoint"
FORMAT_VERSION = 9


def _canonical(payload: Dict[str, Any]) -> str:
    try:
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"snapshot payload is not JSON-serialisable: {exc}")


def write_snapshot(path: str, payload: Dict[str, Any]) -> str:
    """Write *payload* to *path* atomically; returns the payload's sha256.

    The file is written to ``<path>.tmp`` and renamed into place, so a
    crash mid-checkpoint never leaves a truncated snapshot where a
    resumable one used to be.
    """
    body = _canonical(payload)
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    header = json.dumps(
        {"format": FORMAT_NAME, "version": FORMAT_VERSION, "sha256": digest},
        sort_keys=True,
        separators=(",", ":"),
    )
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(header + "\n" + body + "\n")
    os.replace(tmp, path)
    return digest


def read_snapshot(path: str) -> Dict[str, Any]:
    """Read, verify, and parse a snapshot written by :func:`write_snapshot`.

    Raises
    ------
    CheckpointError
        If the file is missing, malformed, a different format/version, or
        fails its checksum.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise CheckpointError(f"cannot read snapshot {path!r}: {exc}")
    if len(lines) < 2:
        raise CheckpointError(f"snapshot {path!r} is truncated ({len(lines)} lines)")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"snapshot {path!r} has a malformed header: {exc}")
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise CheckpointError(f"{path!r} is not a {FORMAT_NAME} snapshot")
    version = header.get("version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"snapshot {path!r} has format version {version!r}; "
            f"this build reads version {FORMAT_VERSION}"
        )
    body = lines[1]
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    if digest != header.get("sha256"):
        raise CheckpointError(
            f"snapshot {path!r} failed its checksum "
            f"(header {header.get('sha256')!r}, actual {digest!r})"
        )
    try:
        payload = json.loads(body)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"snapshot {path!r} has a malformed payload: {exc}")
    if not isinstance(payload, dict):
        raise CheckpointError(f"snapshot {path!r} payload is not an object")
    return payload
