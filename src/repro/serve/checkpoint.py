"""Checkpoint/resume for streaming sessions.

A checkpoint is the session's accepted-event prefix in the canonical
packed columnar encoding plus a small JSON header (session name, config,
event count, determinism hash)::

    VCKP1\\n | u64le header length | header JSON | packed trace bytes

Resume replays the packed events through a fresh
:class:`~repro.serve.session.SessionAnalyzer` under the *same config*.
Because every per-event effect — detector updates, the determinism
hash, the GC tick — is a pure function of the accepted-event prefix,
the resumed session is in exactly the state the checkpointed one was,
which the hash proves: replay recomputes it and refuses to resume on a
mismatch. This is what makes kill-anywhere/resume produce final reports
bit-identical to an uninterrupted run (the differential the serve tests
pin).

Writes are atomic (temp file + ``os.replace``), so a crash mid-write
leaves the previous checkpoint intact.
"""

from __future__ import annotations

import json
import os
import struct
from typing import Any, Dict, Tuple

from repro.core.exceptions import MalformedTraceError
from repro.serve.protocol import ProtocolError
from repro.serve.session import SessionAnalyzer, SessionConfig
from repro.traces.packed import from_bytes, pack, to_bytes

CHECKPOINT_MAGIC = b"VCKP1\n"
_LEN = struct.Struct("<Q")

#: Hard cap on the header, far above any real config.
_MAX_HEADER_BYTES = 1 * 1024 * 1024


class CheckpointError(ProtocolError):
    """A checkpoint could not be written, read, or safely resumed."""

    def __init__(self, message: str):
        super().__init__("checkpoint", message)


def checkpoint_bytes(analyzer: SessionAnalyzer) -> bytes:
    """Serialize the session's accepted prefix + identity."""
    header: Dict[str, Any] = {
        "session": analyzer.config.name,
        "config": analyzer.config.to_dict(),
        "events": len(analyzer.trace),
        "trace_hash": analyzer.hasher.hexdigest(),
    }
    header_bytes = json.dumps(header, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
    payload = to_bytes(pack(analyzer.trace))
    return b"".join((CHECKPOINT_MAGIC, _LEN.pack(len(header_bytes)),
                     header_bytes, payload))


def write_checkpoint(analyzer: SessionAnalyzer, path: str) -> int:
    """Atomically write the session's checkpoint; returns bytes written."""
    data = checkpoint_bytes(analyzer)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {path!r}: {exc}")
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return len(data)


def _parse(data: bytes, source: str) -> Tuple[Dict[str, Any], bytes]:
    if not data.startswith(CHECKPOINT_MAGIC):
        raise CheckpointError(f"{source}: not a checkpoint "
                              f"(bad magic {data[:6]!r})")
    offset = len(CHECKPOINT_MAGIC)
    if len(data) < offset + _LEN.size:
        raise CheckpointError(f"{source}: truncated header length")
    (header_len,) = _LEN.unpack_from(data, offset)
    offset += _LEN.size
    if header_len > _MAX_HEADER_BYTES or offset + header_len > len(data):
        raise CheckpointError(f"{source}: header length {header_len} "
                              "is impossible")
    try:
        header = json.loads(data[offset:offset + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{source}: corrupt header: {exc}")
    if not isinstance(header, dict):
        raise CheckpointError(f"{source}: header is not an object")
    return header, data[offset + header_len:]


def resume_session(path: str) -> SessionAnalyzer:
    """Rebuild a session from its checkpoint by replay, verifying the
    determinism hash before handing the session back.

    A header config that the session refuses, or a payload that the
    decoder or the replay rejects as a malformed trace, is a corrupt
    checkpoint (:class:`CheckpointError`), not a bad request or a
    malformed client stream."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}")
    header, payload = _parse(data, path)
    name = header.get("session")
    config_doc = header.get("config")
    expected_hash = header.get("trace_hash")
    expected_events = header.get("events")
    if (not isinstance(name, str) or not isinstance(config_doc, dict)
            or not isinstance(expected_hash, str)
            or not isinstance(expected_events, int)):
        raise CheckpointError(f"{path}: header is missing session/"
                              "config/events/trace_hash")
    try:
        packed = from_bytes(payload)  # full untrusted-input validation
    except MalformedTraceError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    if len(packed) != expected_events:
        raise CheckpointError(
            f"{path}: header claims {expected_events} events but the "
            f"payload holds {len(packed)}")
    try:
        config = SessionConfig.from_dict(name, config_doc)
    except ProtocolError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    analyzer = SessionAnalyzer(config)
    # The session's trace indexes each event as it accepts it, straight
    # from the packed columns: no unpacked Trace indexes them a second
    # time, and no Event is built.
    try:
        analyzer.feed_rows(packed.rows())
    except MalformedTraceError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    actual = analyzer.hasher.hexdigest()
    if actual != expected_hash:
        raise CheckpointError(
            f"{path}: determinism hash mismatch after replay "
            f"(checkpoint {expected_hash[:16]}…, replay {actual[:16]}…)")
    return analyzer
