"""The ``vindicator.serve/1`` wire protocol.

Framing is newline-delimited JSON (NDJSON): each request and each
response is one JSON object on one line, capped at
:data:`MAX_FRAME_BYTES`. Requests carry an ``op``; responses echo the
``op``, carry ``ok``, and tag themselves with the schema id. Both
directions are pinned by :mod:`repro.obs.schema`
(:func:`~repro.obs.schema.validate_serve_request` /
:func:`~repro.obs.schema.validate_serve_response`).

Every client-triggerable failure maps to a structured error object
``{"code", "message", ...}`` — a malformed event stream reports the
offending event index, a bad text line its line number, a reply over
the cap ``too-large`` — never a raw Python traceback or a dropped
connection.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.core.exceptions import (MalformedTraceError, ReproError,
                                   TraceFormatError)
from repro.obs.export import json_blocks
from repro.obs.schema import SERVE_SCHEMA_ID

#: Hard cap on one NDJSON frame (either direction).
MAX_FRAME_BYTES = 4 * 1024 * 1024

#: Stable error codes (part of the ``vindicator.serve/1`` contract).
ERROR_CODES = (
    "bad-frame",        # not valid JSON / not an object / oversized
    "bad-request",      # schema-invalid or semantically bad request
    "unknown-session",  # op referenced a session that does not exist
    "session-exists",   # hello for a session name already open
    "session-finished", # events after finish
    "malformed-trace",  # structurally invalid event stream
    "trace-format",     # unparseable event line
    "checkpoint",       # unreadable/corrupt/mismatched checkpoint
    "too-large",        # frame above MAX_FRAME_BYTES
    "internal",         # unexpected server-side failure
)


class ProtocolError(ReproError):
    """A request that must be answered with a structured error."""

    def __init__(self, code: str, message: str,
                 event_index: Optional[int] = None,
                 line_number: Optional[int] = None):
        super().__init__(message)
        assert code in ERROR_CODES, code
        self.code = code
        self.event_index = event_index
        self.line_number = line_number


def error_fields(exc: BaseException) -> Dict[str, Any]:
    """Map an exception to the wire error object."""
    if isinstance(exc, ProtocolError):
        doc: Dict[str, Any] = {"code": exc.code, "message": str(exc)}
        if exc.event_index is not None:
            doc["event_index"] = exc.event_index
        if exc.line_number is not None:
            doc["line_number"] = exc.line_number
        return doc
    if isinstance(exc, MalformedTraceError):
        return {"code": "malformed-trace", "message": str(exc),
                "event_index": exc.event_index}
    if isinstance(exc, TraceFormatError):
        return {"code": "trace-format", "message": str(exc),
                "line_number": exc.line_number}
    return {"code": "internal", "message": f"{type(exc).__name__}: {exc}"}


def ok_response(op: str, **fields: Any) -> Dict[str, Any]:
    doc: Dict[str, Any] = {"schema": SERVE_SCHEMA_ID, "ok": True, "op": op}
    doc.update(fields)
    return doc


def error_response(op: str, exc: BaseException) -> Dict[str, Any]:
    return {"schema": SERVE_SCHEMA_ID, "ok": False, "op": op,
            "error": error_fields(exc)}


def frame_blocks(doc: Dict[str, Any]) -> List[bytes]:
    """One NDJSON frame as encoded blocks (the last ends in the newline).

    The blocks come from :func:`repro.obs.export.json_blocks`, so the
    frame is never held as one string nor copied whole; a reply of
    scalars (``events``, ``ping``) is one C-encoder call. The cap
    is checked on their total, so a frame over :data:`MAX_FRAME_BYTES`
    raises ``too-large`` before a byte of it is sent.
    """
    blocks = [block.encode("utf-8")
              for block in json_blocks(doc, compact=True)]
    blocks[-1] += b"\n"
    size = sum(map(len, blocks))
    if size > MAX_FRAME_BYTES:
        raise ProtocolError("too-large",
                            f"frame of {size} bytes exceeds "
                            f"{MAX_FRAME_BYTES}")
    return blocks


def encode_frame(doc: Dict[str, Any]) -> bytes:
    """One NDJSON frame (including the trailing newline) as one
    ``bytes``: :func:`frame_blocks` joined."""
    blocks = frame_blocks(doc)
    return blocks[0] if len(blocks) == 1 else b"".join(blocks)


def decode_frame(line: bytes) -> Dict[str, Any]:
    """Parse one request line into a dict (frame-level checks only)."""
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError("too-large",
                            f"frame of {len(line)} bytes exceeds "
                            f"{MAX_FRAME_BYTES}")
    try:
        doc = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError("bad-frame", f"frame is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ProtocolError("bad-frame", "frame is not a JSON object")
    return doc
