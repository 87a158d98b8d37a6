"""Columnar packed encoding of a :class:`~repro.core.trace.Trace`.

A ``Trace`` holds one ``Event`` object per trace event — tens of
thousands of small dataclass records plus their per-event strings.
:class:`PackedTrace` stores the same information columnarly:

* ``kinds`` — one byte per event, an index into the fixed
  :class:`~repro.core.events.EventKind` order;
* ``tid_idx`` / ``target_idx`` / ``loc_idx`` — per-event indices into
  small first-appearance interning tables (``-1`` encodes ``None``);
* ``local_time`` — the thread-local 1-based time of each event, so
  array-level consumers can use per-thread positions without
  materialising a ``Trace`` at all;
* the interning tables themselves (one entry per distinct thread id,
  target, and source location) and the trace's provenance dict.

The columns are :class:`array.array` instances, which pickle as flat
machine-typed buffers, so a packed trace crosses a process boundary as a
handful of contiguous blobs. :func:`pack` / :meth:`PackedTrace.unpack`
round-trip exactly: event ids, thread ids, kinds, targets, source
locations, and provenance are all preserved, and unpacking skips
re-validation because the source trace was validated when first built.

This module is the persistence layer for the streaming service
(:mod:`repro.serve`):

* a checkpoint is :func:`pack` of a live session's
  :class:`~repro.serve.streaming.StreamingTrace`;
* :meth:`PackedTrace.to_bytes` / :func:`packed_from_bytes` are a
  *canonical* byte encoding (fixed little-endian columns + sorted-key
  JSON header) used by checkpoints — encode→decode→encode is
  byte-stable, and decoding validates untrusted input, surfacing
  truncation or corruption as :class:`MalformedTraceError` with the
  offending event index;
* :class:`TraceHasher` is the running determinism hash over the event
  stream. It is updated per event, so its digest is invariant to how
  the stream was chunked — a resumed session that replays a checkpoint
  and reaches the same digest provably saw the same events.
"""

from __future__ import annotations

import hashlib
import json
import sys
from array import array
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Tuple, TypeVar

_T = TypeVar("_T", bound=Hashable)

from repro.core.events import Event, EventKind, Target, Tid, _new_event
from repro.core.exceptions import MalformedTraceError
from repro.core.trace import Trace

#: The fixed kind numbering used by the ``kinds`` column. Index in this
#: tuple == byte value; both sides of a process boundary run the same
#: code, so the enum definition order is a stable contract.
KIND_ORDER: Tuple[EventKind, ...] = tuple(EventKind)

#: Kind byte by ``id()`` of the enum member (C-speed hashing, as in
#: ``repro.core.events.CODE_BY_KIND_ID``).
_KIND_CODE: Dict[int, int] = {id(kind): i for i, kind in enumerate(KIND_ORDER)}


@dataclass
class PackedTrace:
    """A trace as columnar arrays plus interning tables.

    Build with :func:`pack`; restore with :meth:`unpack`. The instance
    is picklable and its payload size is dominated by the four
    fixed-width columns, not by per-event Python objects.
    """

    #: Per-event :data:`KIND_ORDER` index (``array('B')``).
    kinds: "array[int]"
    #: Per-event index into :attr:`tids` (``array('I')``).
    tid_idx: "array[int]"
    #: Per-event index into :attr:`targets`, ``-1`` for ``None``
    #: (``array('i')``).
    target_idx: "array[int]"
    #: Per-event index into :attr:`locs`, ``-1`` for ``None``
    #: (``array('i')``).
    loc_idx: "array[int]"
    #: Per-event thread-local 1-based time (``array('I')``), mirroring
    #: :attr:`repro.core.trace.Trace.local_time`.
    local_time: "array[int]"
    #: Distinct thread ids in order of first appearance.
    tids: List[Tid]
    #: Distinct non-``None`` targets in order of first appearance.
    targets: List[Target]
    #: Distinct non-``None`` source locations in order of first appearance.
    locs: List[str]
    #: Copied from :attr:`repro.core.trace.Trace.provenance`.
    provenance: Dict[str, object] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.kinds)

    def nbytes(self) -> int:
        """Total size of the fixed-width columns in bytes (the
        interning tables are small and excluded)."""
        return sum(
            len(column) * column.itemsize
            for column in (self.kinds, self.tid_idx, self.target_idx,
                           self.loc_idx, self.local_time)
        )

    def events(self) -> List[Event]:
        """Decode the packed events, unindexed (their ``eid`` is their
        position)."""
        tids = self.tids
        targets = self.targets
        locs = self.locs
        target_idx = self.target_idx
        loc_idx = self.loc_idx
        events: List[Event] = []
        for eid, (code, tid_i) in enumerate(zip(self.kinds, self.tid_idx)):
            t_i = target_idx[eid]
            l_i = loc_idx[eid]
            events.append(_new_event(
                eid,
                tids[tid_i],
                KIND_ORDER[code],
                None if t_i < 0 else targets[t_i],
                None if l_i < 0 else locs[l_i],
            ))
        return events

    def unpack(self) -> Trace:
        """Rebuild the original :class:`~repro.core.trace.Trace`.

        Validation is skipped: the packed form can only come from
        :func:`pack`, whose input was already validated.
        """
        trace = Trace(self.events(), validate=False)
        trace.provenance = dict(self.provenance)
        return trace


def pack(trace: Trace) -> PackedTrace:
    """Encode ``trace`` as a :class:`PackedTrace`."""
    kinds = array("B")
    tid_idx = array("I")
    target_idx = array("i")
    loc_idx = array("i")
    tids: List[Tid] = []
    targets: List[Target] = []
    locs: List[str] = []
    tid_table: Dict[Tid, int] = {}
    target_table: Dict[Target, int] = {}
    loc_table: Dict[str, int] = {}
    for e in trace.events:
        kinds.append(_KIND_CODE[id(e.kind)])
        tid_i = tid_table.get(e.tid)
        if tid_i is None:
            tid_i = tid_table[e.tid] = len(tids)
            tids.append(e.tid)
        tid_idx.append(tid_i)
        target_idx.append(_intern(e.target, target_table, targets))
        loc_idx.append(_intern(e.loc, loc_table, locs))
    return PackedTrace(
        kinds=kinds,
        tid_idx=tid_idx,
        target_idx=target_idx,
        loc_idx=loc_idx,
        local_time=array("I", trace.local_time),
        tids=tids,
        targets=targets,
        locs=locs,
        provenance=dict(trace.provenance),
    )


def _intern(value: Optional[_T], table: Dict[_T, int], pool: List[_T]) -> int:
    """First-appearance interning: return ``value``'s index in ``pool``,
    appending it on first sight; ``None`` encodes as ``-1``."""
    if value is None:
        return -1
    index = table.get(value)
    if index is None:
        index = table[value] = len(pool)
        pool.append(value)
    return index


# --------------------------------------------------------------------------
# Determinism hash
# --------------------------------------------------------------------------

#: Kind name by ``id()`` of the enum member (``EventKind.name`` is a
#: Python-level descriptor).
_KIND_NAME: Dict[int, str] = {id(kind): kind.name for kind in EventKind}


def event_fingerprint(e: Event) -> bytes:
    """Canonical byte fingerprint of one event.

    ``repr`` disambiguates value collisions across types (thread id
    ``1`` vs target ``"1"``); ``loc`` is included even though ``Event``
    equality ignores it, because the checkpoint must attest to the full
    stream the client sent.
    """
    return (f"{e.eid}\x1f{e.tid!r}\x1f{_KIND_NAME[id(e.kind)]}\x1f"
            f"{e.target!r}\x1f{e.loc!r}\x1e").encode("utf-8")


class TraceHasher:
    """Running SHA-256 over a stream of events.

    The digest is a pure function of the event *sequence*: feeding the
    same events in the same order yields the same digest no matter how
    the stream was split into chunks, which is what lets a resumed
    session prove it matches an uninterrupted run.
    """

    __slots__ = ("_sha", "count")

    def __init__(self) -> None:
        self._sha = hashlib.sha256(b"vindicator-trace/1\n")
        #: Number of events hashed so far.
        self.count = 0

    def update(self, e: Event) -> None:
        self._sha.update(event_fingerprint(e))
        self.count += 1

    def hexdigest(self) -> str:
        return self._sha.hexdigest()

    def copy(self) -> "TraceHasher":
        clone = TraceHasher.__new__(TraceHasher)
        clone._sha = self._sha.copy()
        clone.count = self.count
        return clone


def trace_hash(events: Iterable[Event]) -> str:
    """Digest of a complete event sequence (the single-shot reference
    against which streamed/resumed sessions compare)."""
    hasher = TraceHasher()
    for e in events:
        hasher.update(e)
    return hasher.hexdigest()


# --------------------------------------------------------------------------
# Canonical byte encoding (checkpoints)
# --------------------------------------------------------------------------

#: Magic prefix of the canonical packed-trace byte encoding.
PACKED_MAGIC = b"VPKC1\n"

_COLUMN_LAYOUT: Tuple[Tuple[str, str], ...] = (
    ("kinds", "B"), ("tid_idx", "I"), ("target_idx", "i"),
    ("loc_idx", "i"), ("local_time", "I"),
)


def _column_bytes(column: "array[int]") -> bytes:
    """Column payload as little-endian bytes regardless of host order."""
    if sys.byteorder == "little" or column.itemsize == 1:
        return column.tobytes()
    swapped = array(column.typecode, column)  # pragma: no cover - big-endian
    swapped.byteswap()  # pragma: no cover - big-endian
    return swapped.tobytes()  # pragma: no cover - big-endian


def _column_from_bytes(typecode: str, data: bytes) -> "array[int]":
    column: "array[int]" = array(typecode)
    column.frombytes(data)
    if sys.byteorder != "little" and column.itemsize > 1:  # pragma: no cover
        column.byteswap()
    return column


def _json_table(name: str, values: List[object]) -> List[object]:
    for value in values:
        if not isinstance(value, (int, str)) or isinstance(value, bool):
            raise ValueError(
                "packed trace %s table entry %r is not serializable; the "
                "canonical byte encoding supports int and str identifiers" % (name, value))
    return values


def to_bytes(packed: PackedTrace) -> bytes:
    """Canonical byte encoding of ``packed``.

    Layout: magic, 4-byte little-endian header length, sorted-key JSON
    header (counts + interning tables + provenance), then the five raw
    little-endian columns in :data:`_COLUMN_LAYOUT` order. The encoding
    is canonical — ``to_bytes(from_bytes(b)) == b`` — so checkpoint
    bytes can be compared directly.
    """
    header = {
        "version": 1,
        "events": len(packed),
        "tids": _json_table("tids", list(packed.tids)),
        "targets": _json_table("targets", list(packed.targets)),
        "locs": _json_table("locs", list(packed.locs)),
        "provenance": packed.provenance,
    }
    try:
        header_bytes = json.dumps(
            header, sort_keys=True, separators=(",", ":"), allow_nan=False,
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ValueError("packed trace header is not JSON-serializable: %s" % exc) from exc
    parts = [PACKED_MAGIC, len(header_bytes).to_bytes(4, "little"), header_bytes]
    for attr, _typecode in _COLUMN_LAYOUT:
        parts.append(_column_bytes(getattr(packed, attr)))
    return b"".join(parts)


def _truncated(message: str, event_index: int = -1) -> MalformedTraceError:
    return MalformedTraceError("truncated packed trace: " + message, event_index=event_index)


def _header_list(header: Dict[str, object], key: str, str_only: bool) -> List[object]:
    values = header.get(key)
    if not isinstance(values, list):
        raise MalformedTraceError("packed trace header field %r is not a list" % key)
    for value in values:
        ok = isinstance(value, str) if str_only \
            else (isinstance(value, (int, str)) and not isinstance(value, bool))
        if not ok:
            raise MalformedTraceError(
                "packed trace header table %r has invalid entry %r" % (key, value))
    return values


def from_bytes(data: bytes) -> PackedTrace:
    """Decode (and validate) the canonical byte encoding.

    The input is untrusted — a partially written checkpoint, a corrupt
    file — so every failure mode surfaces as
    :class:`~repro.core.exceptions.MalformedTraceError`, with
    ``event_index`` set to the first affected event when the damage is
    inside the column region (truncation, out-of-range table index,
    unknown kind code, inconsistent local time).
    """
    if len(data) < len(PACKED_MAGIC) + 4:
        raise _truncated("missing magic/header length")
    if data[:len(PACKED_MAGIC)] != PACKED_MAGIC:
        raise MalformedTraceError("not a packed trace: bad magic %r" % data[:len(PACKED_MAGIC)])
    offset = len(PACKED_MAGIC)
    header_len = int.from_bytes(data[offset:offset + 4], "little")
    offset += 4
    if len(data) < offset + header_len:
        raise _truncated("header ends mid-stream")
    try:
        header_obj = json.loads(data[offset:offset + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedTraceError("packed trace header is not valid JSON: %s" % exc) from exc
    offset += header_len
    if not isinstance(header_obj, dict):
        raise MalformedTraceError("packed trace header is not an object")
    header: Dict[str, object] = header_obj
    if header.get("version") != 1:
        raise MalformedTraceError(
            "unsupported packed trace version %r" % header.get("version"))
    count = header.get("events")
    if not isinstance(count, int) or isinstance(count, bool) or count < 0:
        raise MalformedTraceError("packed trace header field 'events' is not a count")
    tids = _header_list(header, "tids", str_only=False)
    targets = _header_list(header, "targets", str_only=False)
    locs = _header_list(header, "locs", str_only=True)
    provenance = header.get("provenance")
    if not isinstance(provenance, dict):
        raise MalformedTraceError("packed trace header field 'provenance' is not an object")

    columns: Dict[str, "array[int]"] = {}
    for attr, typecode in _COLUMN_LAYOUT:
        itemsize = array(typecode).itemsize
        need = count * itemsize
        chunk = data[offset:offset + need]
        if len(chunk) < need:
            raise _truncated(
                "column %r ends after %d of %d events" % (attr, len(chunk) // itemsize, count),
                event_index=len(chunk) // itemsize)
        columns[attr] = _column_from_bytes(typecode, chunk)
        offset += need
    if offset != len(data):
        raise MalformedTraceError(
            "packed trace has %d trailing bytes" % (len(data) - offset))

    kinds = columns["kinds"]
    tid_idx = columns["tid_idx"]
    target_idx = columns["target_idx"]
    loc_idx = columns["loc_idx"]
    local_time = columns["local_time"]
    tid_counts: Dict[int, int] = {}
    n_kinds = len(KIND_ORDER)
    for eid in range(count):
        if kinds[eid] >= n_kinds:
            raise MalformedTraceError(
                "unknown event kind code %d" % kinds[eid], event_index=eid)
        tid_i = tid_idx[eid]
        if tid_i >= len(tids):
            raise MalformedTraceError(
                "thread index %d out of range" % tid_i, event_index=eid)
        if not -1 <= target_idx[eid] < len(targets):
            raise MalformedTraceError(
                "target index %d out of range" % target_idx[eid], event_index=eid)
        if not -1 <= loc_idx[eid] < len(locs):
            raise MalformedTraceError(
                "location index %d out of range" % loc_idx[eid], event_index=eid)
        expected = tid_counts.get(tid_i, 0) + 1
        if local_time[eid] != expected:
            raise MalformedTraceError(
                "local time %d does not match thread position %d"
                % (local_time[eid], expected), event_index=eid)
        tid_counts[tid_i] = expected

    typed_tids: List[Tid] = list(tids)
    typed_targets: List[Target] = list(targets)
    typed_locs: List[str] = [loc for loc in locs if isinstance(loc, str)]
    return PackedTrace(
        kinds=kinds,
        tid_idx=tid_idx,
        target_idx=target_idx,
        loc_idx=loc_idx,
        local_time=local_time,
        tids=typed_tids,
        targets=typed_targets,
        locs=typed_locs,
        provenance={str(k): v for k, v in provenance.items()},
    )
