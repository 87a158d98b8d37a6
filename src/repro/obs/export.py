"""Exporters: JSONL event stream, snapshot JSON, Prometheus text.

Three formats, chosen by file extension in :func:`write_metrics`:

* ``*.jsonl`` — a streamed event log (``vindicator.obs/1``): a ``meta``
  header, one flat ``span`` record per closed span (emitted via the
  tracer's ``on_close`` hook, so long runs don't buffer their whole
  span forest), and a single trailing ``metrics`` record;
* ``*.json`` — one self-contained snapshot document
  (``vindicator.obs-snapshot/1``) with the metrics snapshot and the
  recursive span tree;
* ``*.prom`` / ``*.txt`` — Prometheus text exposition format, with
  dotted metric names mangled to ``vindicator_``-prefixed underscores.

All record shapes are pinned by :mod:`repro.obs.schema`. Every JSON
document the program emits (``--json`` reports, the ``*.json``
snapshot, watch-directory results) goes through :func:`write_document`,
and every serve reply through :func:`repro.serve.protocol.frame_blocks`;
both encode with :func:`json_blocks`.
"""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii
from typing import Dict, IO, Iterator, List, Mapping, Optional

from repro.core import kernels
from repro.obs.metrics import AnyRegistry, Value
from repro.obs.schema import OBS_SNAPSHOT_SCHEMA_ID, OBS_STREAM_SCHEMA_ID
from repro.obs.spans import AnyTracer, Span


def _dumps(record: Mapping[str, object]) -> str:
    return json.dumps(record, separators=(",", ":"), sort_keys=True)


#: A block is cut once it holds this many characters, so it runs over
#: by at most its last piece (one batch of records, or one value).
BLOCK_BYTES = 64 * 1024

#: Records per C-encoder call when a list is encoded in batches.
BATCH_RECORDS = 256

#: Dict values of these types make a dict walked rather than encoded
#: whole (exact types: a subclass is encoded whole, which is equal text).
_CONTAINERS = frozenset((dict, list, tuple))
_DOCUMENT_ENCODER = json.JSONEncoder(sort_keys=True)
_FRAME_ENCODER = json.JSONEncoder(separators=(",", ":"))


def json_blocks(doc: object, compact: bool = False) -> Iterator[str]:
    """``doc``'s JSON text in blocks of about :data:`BLOCK_BYTES`.

    The joined blocks equal ``json.dumps(doc, sort_keys=True)`` (the
    document layout), or with ``compact`` ``json.dumps(doc,
    separators=(",", ":"))`` with keys in insertion order (the serve
    frame layout), byte for byte. No step holds the whole text: dicts
    that hold a list or a dict are walked here, a list of more than
    :data:`BATCH_RECORDS` records is encoded by the C encoder one batch
    at a time, and everything else (a record, a leaf dict, a scalar) is
    one C-encoder call. A document of scalars is a single call.
    """
    encoder = _FRAME_ENCODER if compact else _DOCUMENT_ENCODER
    parts: List[str] = []
    size = 0
    for piece in _pieces(doc, encoder):
        parts.append(piece)
        size += len(piece)
        if size >= BLOCK_BYTES:
            yield "".join(parts)
            parts = []
            size = 0
    if parts:
        yield "".join(parts)


def _pieces(obj: object, encoder: json.JSONEncoder) -> Iterator[str]:
    if isinstance(obj, dict) and not _CONTAINERS.isdisjoint(
            map(type, obj.values())):
        items = sorted(obj.items()) if encoder.sort_keys else obj.items()
        opener = "{"
        for key, value in items:
            yield opener + _key_text(key, encoder) + encoder.key_separator
            opener = encoder.item_separator
            yield from _pieces(value, encoder)
        yield "}"
    elif isinstance(obj, (list, tuple)) and len(obj) > BATCH_RECORDS:
        yield encoder.encode(obj[:BATCH_RECORDS])[:-1]
        for start in range(BATCH_RECORDS, len(obj), BATCH_RECORDS):
            yield encoder.item_separator
            yield encoder.encode(obj[start:start + BATCH_RECORDS])[1:-1]
        yield "]"
    else:
        yield encoder.encode(obj)


def _key_text(key: object, encoder: json.JSONEncoder) -> str:
    """A dict key as the C encoder writes it (non-str keys become
    strings: ``1.5`` → ``"1.5"``, ``None`` → ``"null"``)."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    text = encoder.encode({key: 0})
    return text[1:-len(encoder.key_separator) - 2]


def write_document(doc: Mapping[str, object], fh: IO[str]) -> None:
    """Write ``doc`` to ``fh`` as one compact JSON line, keys sorted.

    The text is written in the blocks of :func:`json_blocks`, so no
    copy of the whole text is made; a document smaller than one block
    is one write plus the newline. The blocks come from the C encoder:
    ``json.dump`` with ``indent`` runs the pure-Python one and writes
    every token separately (half a million writes for the 3.7 MB
    indented form of a 38k-event report, each a system call on an
    unbuffered stdout). Sorted keys keep the output byte-stable; pipe
    it through ``python -m json.tool`` to read it.
    """
    for block in json_blocks(doc):
        fh.write(block)
    fh.write("\n")


# ----------------------------------------------------------------------
# Record builders (JSONL stream)
# ----------------------------------------------------------------------
def meta_record(command: str = "",
                provenance: Optional[Mapping[str, object]] = None
                ) -> Dict[str, object]:
    """The stream header: schema tag + run identity."""
    record: Dict[str, object] = {
        "type": "meta",
        "schema": OBS_STREAM_SCHEMA_ID,
        "command": command,
        "python": sys.version.split()[0],
        "kernels": kernels.active_backend(),
    }
    if provenance:
        record["provenance"] = dict(provenance)
    return record


def span_record(span: Span, depth: int) -> Dict[str, object]:
    """One closed span as a flat stream record (depth, not nesting,
    carries the tree structure — children close before parents, so the
    stream is a post-order walk)."""
    record: Dict[str, object] = {
        "type": "span",
        "name": span.name,
        "elapsed_seconds": span.elapsed_seconds,
        "depth": depth,
    }
    if span.counts:
        record["counts"] = dict(span.counts)
    if span.tags:
        record["tags"] = dict(span.tags)
    mem = span.memory_delta()
    if mem:
        record["memory"] = mem
    return record


def metrics_record(registry: AnyRegistry) -> Dict[str, object]:
    """The single trailing record with the final metrics snapshot."""
    return {"type": "metrics", "metrics": registry.snapshot()}


class JsonlWriter:
    """Appends compact JSON lines to an open text stream.

    Usable directly as a tracer ``on_close`` hook via :meth:`on_close`.
    """

    def __init__(self, stream: IO[str]) -> None:
        self._stream = stream

    def write(self, record: Mapping[str, object]) -> None:
        self._stream.write(_dumps(record))
        self._stream.write("\n")

    def on_close(self, span: Span, depth: int) -> None:
        self.write(span_record(span, depth))


# ----------------------------------------------------------------------
# Snapshot document
# ----------------------------------------------------------------------
def snapshot_document(registry: AnyRegistry, tracer: AnyTracer,
                      meta: Optional[Mapping[str, object]] = None
                      ) -> Dict[str, object]:
    """One self-contained JSON document: metrics + span tree + meta."""
    doc: Dict[str, object] = {
        "schema": OBS_SNAPSHOT_SCHEMA_ID,
        "metrics": registry.snapshot(),
        "spans": tracer.to_dicts(),
    }
    if meta:
        doc["meta"] = dict(meta)
    return doc


# ----------------------------------------------------------------------
# Prometheus text format
# ----------------------------------------------------------------------
def _prom_name(name: str, prefix: str) -> str:
    return f"{prefix}_{name.replace('.', '_')}"


def _prom_value(value: Value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def to_prometheus(registry: AnyRegistry, prefix: str = "vindicator") -> str:
    """The registry in Prometheus text exposition format."""
    lines: List[str] = []
    for name, value in registry.counters().items():
        mangled = _prom_name(name, prefix)
        lines.append(f"# TYPE {mangled} counter")
        lines.append(f"{mangled} {_prom_value(value)}")
    for name, value in registry.gauges().items():
        mangled = _prom_name(name, prefix)
        lines.append(f"# TYPE {mangled} gauge")
        lines.append(f"{mangled} {_prom_value(value)}")
    for name, hist in registry.histograms().items():
        mangled = _prom_name(name, prefix)
        lines.append(f"# TYPE {mangled} histogram")
        buckets = hist["buckets"]
        counts = hist["counts"]
        assert isinstance(buckets, list) and isinstance(counts, list)
        cumulative = 0
        for bound, count in zip(buckets, counts):
            cumulative += count
            lines.append(f'{mangled}_bucket{{le="{bound:g}"}} {cumulative}')
        cumulative += counts[-1] if counts else 0
        lines.append(f'{mangled}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{mangled}_sum {_prom_value(hist['sum'])}")  # type: ignore[arg-type]
        lines.append(f"{mangled}_count {hist['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# Extension-dispatched writer (the ``--metrics <path>`` backend for the
# non-streaming formats; *.jsonl streaming is wired in obs.session()).
# ----------------------------------------------------------------------
def write_metrics(path: str, registry: AnyRegistry, tracer: AnyTracer,
                  meta: Optional[Mapping[str, object]] = None) -> None:
    """Write the final artifact for ``--metrics <path>``.

    ``*.json`` → snapshot document; ``*.prom``/``*.txt`` → Prometheus
    text; anything else (including ``*.jsonl``) → the stream's trailing
    records, for callers that did not stream during the run.
    """
    lower = path.lower()
    with open(path, "w", encoding="utf-8") as fh:
        if lower.endswith(".json"):
            write_document(snapshot_document(registry, tracer, meta), fh)
        elif lower.endswith((".prom", ".txt")):
            fh.write(to_prometheus(registry))
        else:
            writer = JsonlWriter(fh)
            writer.write(meta_record(
                command=str((meta or {}).get("command", "")),
                provenance=_as_mapping((meta or {}).get("provenance"))))
            _write_span_stream(writer, tracer)
            writer.write(metrics_record(registry))


def _as_mapping(value: object) -> Optional[Mapping[str, object]]:
    return value if isinstance(value, dict) else None


def _write_span_stream(writer: JsonlWriter, tracer: AnyTracer) -> None:
    """Re-emit a buffered span forest as post-order flat records."""
    def emit(span: Span, depth: int) -> None:
        for child in span.children:
            emit(child, depth + 1)
        writer.on_close(span, depth)

    for root in getattr(tracer, "roots", []):
        emit(root, 0)
