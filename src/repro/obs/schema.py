"""Stable, documented schemas for every machine-readable output.

Benchmarks and CI consume three artifact families, each carrying an
explicit ``schema`` version tag so scrapers fail loudly instead of
silently misparsing:

* ``vindicator.obs/1`` — the ``--metrics *.jsonl`` event stream: one
  ``meta`` record, then one flat ``span`` record per closed span, then
  exactly one final ``metrics`` record;
* ``vindicator.obs-snapshot/1`` — the single-document form
  (``--metrics *.json``): metrics snapshot + recursive span tree +
  memory + meta;
* ``vindicator.analyze/1`` — ``vindicator analyze --json``: trace
  provenance, per-analysis race reports, classification, vindication
  verdicts, and the metrics snapshot when observability was on;
* ``vindicator.lint/1`` — ``vindicator lint --json``: every linter
  finding with its stable rule code, severity, and source line;
* ``vindicator.scan/1`` — ``vindicator scan --json``: the source-level
  static analysis report — per-module tier classification, SA2xx
  findings, and the instrumentation plan the future dynamic frontend
  consumes (see ``docs/ALGORITHMS.md``);
* ``vindicator.serve/1`` — the framed NDJSON request/response protocol
  of the streaming daemon (``vindicator serve``): session lifecycle
  (``hello``/``events``/``status``/``races``/``finish``), checkpoint
  control, and the structured error envelope (see ``docs/SERVING.md``).

Validation is a dependency-free subset of JSON Schema (``type``,
``properties``, ``required``, ``additionalProperties``, ``items``,
``enum``, plus ``$ref`` into a definitions table for the recursive span
tree). The exact field-by-field contract is documented in
``docs/OBSERVABILITY.md``; tests and the CI perf-smoke job validate
real artifacts against these schemas on every run.
"""

from __future__ import annotations

import json
from itertools import repeat
from typing import Dict, Iterable, List, Mapping, Optional, Union

Schema = Mapping[str, object]

#: Version tags (bump on any breaking change to the matching schema).
OBS_STREAM_SCHEMA_ID = "vindicator.obs/1"
OBS_SNAPSHOT_SCHEMA_ID = "vindicator.obs-snapshot/1"
ANALYZE_SCHEMA_ID = "vindicator.analyze/1"
LINT_SCHEMA_ID = "vindicator.lint/1"
SCAN_SCHEMA_ID = "vindicator.scan/1"
SERVE_SCHEMA_ID = "vindicator.serve/1"


class SchemaError(ValueError):
    """A document does not conform to its schema."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


_TYPES: Dict[str, Union[type, tuple]] = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "integer": int,
    "number": (int, float),
    "null": type(None),
}


def _type_ok(value: object, name: str) -> bool:
    expected = _TYPES[name]
    if name in ("integer", "number") and isinstance(value, bool):
        return False  # bool is an int subclass; JSON says they differ
    return isinstance(value, expected)  # type: ignore[arg-type]


def validate(value: object, schema: Schema, path: str = "$",
             defs: Optional[Mapping[str, Schema]] = None) -> None:
    """Validate ``value`` against ``schema``; raise :class:`SchemaError`
    naming the offending path on the first violation."""
    ref = schema.get("$ref")
    if ref is not None:
        if defs is None or not isinstance(ref, str) or ref not in defs:
            raise SchemaError(path, f"unresolvable $ref {ref!r}")
        validate(value, defs[ref], path, defs)
        return

    type_spec = schema.get("type")
    if type_spec is not None:
        names = [type_spec] if isinstance(type_spec, str) else list(type_spec)  # type: ignore[arg-type]
        if not any(isinstance(n, str) and _type_ok(value, n) for n in names):
            raise SchemaError(
                path, f"expected {' or '.join(map(str, names))}, "
                      f"got {type(value).__name__} ({value!r:.80})")

    enum = schema.get("enum")
    if enum is not None and value not in enum:  # type: ignore[operator]
        raise SchemaError(path, f"{value!r} not in enum {enum!r}")

    if isinstance(value, dict):
        props = schema.get("properties")
        required = schema.get("required")
        extra = schema.get("additionalProperties", True)
        if isinstance(required, list):
            for key in required:
                if key not in value:
                    raise SchemaError(path, f"missing required key {key!r}")
        if isinstance(props, dict):
            for key, sub in props.items():
                if key in value and isinstance(sub, dict):
                    validate(value[key], sub, f"{path}.{key}", defs)
            if extra is False:
                unknown = set(value) - set(props)
                if unknown:
                    raise SchemaError(
                        path, f"unexpected keys {sorted(unknown)!r}")
            elif isinstance(extra, dict):
                for key in set(value) - set(props):
                    validate(value[key], extra, f"{path}.{key}", defs)
        elif isinstance(extra, dict):
            for key, item in value.items():
                validate(item, extra, f"{path}.{key}", defs)

    if isinstance(value, list):
        items = schema.get("items")
        if isinstance(items, dict):
            type_name = items.get("type")
            if (len(items) == 1 and isinstance(type_name, str)
                    and type_name in _TYPES):
                # A plain item type: check every item in one pass, and
                # build the path and recurse only for the first misfit.
                if not all(map(_type_ok, value, repeat(type_name))):
                    i = next(i for i, item in enumerate(value)
                             if not _type_ok(item, type_name))
                    validate(value[i], items, f"{path}[{i}]", defs)
                return
            for i, item in enumerate(value):
                validate(item, items, f"{path}[{i}]", defs)


# ----------------------------------------------------------------------
# Shared fragments
# ----------------------------------------------------------------------
_NUMBER = {"type": "number"}
_COUNTS = {"type": "object", "additionalProperties": _NUMBER}
_MEMORY = {"type": "object", "additionalProperties": {"type": "integer"}}

_HISTOGRAM = {
    "type": "object",
    "required": ["buckets", "counts", "sum", "count"],
    "additionalProperties": False,
    "properties": {
        "buckets": {"type": "array", "items": _NUMBER},
        "counts": {"type": "array", "items": {"type": "integer"}},
        "sum": _NUMBER,
        "count": {"type": "integer"},
    },
}

_INTEGER = {"type": "integer"}

#: Collector attribution (``repro.obs.collector``): present once a
#: collection has run while observability was on.
_GC_COUNTERS = {
    "type": "object",
    "additionalProperties": _NUMBER,
    "properties": {
        "runtime.gc.collections.gen0": _INTEGER,
        "runtime.gc.collections.gen1": _INTEGER,
        "runtime.gc.collections.gen2": _INTEGER,
        "runtime.gc_pause_s": _NUMBER,
    },
}
_GC_GAUGES = {
    "type": "object",
    "additionalProperties": _NUMBER,
    "properties": {"runtime.gc_pause_max_s": _NUMBER},
}

_METRICS_SNAPSHOT = {
    "type": "object",
    "required": ["counters", "gauges", "histograms"],
    "additionalProperties": False,
    "properties": {
        "counters": _GC_COUNTERS,
        "gauges": _GC_GAUGES,
        "histograms": {"type": "object", "additionalProperties": _HISTOGRAM},
    },
}

#: Recursive span tree node (snapshot form).
_SPAN_TREE: Dict[str, object] = {
    "type": "object",
    "required": ["name", "elapsed_seconds"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string"},
        "elapsed_seconds": _NUMBER,
        "counts": _COUNTS,
        "tags": {"type": "object",
                 "additionalProperties": {"type": "string"}},
        "memory": _MEMORY,
        "children": {"type": "array", "items": {"$ref": "span_tree"}},
    },
}

_DEFS: Dict[str, Schema] = {"span_tree": _SPAN_TREE}

_PROVENANCE = {"type": "object"}

# ----------------------------------------------------------------------
# JSONL stream records (vindicator.obs/1)
# ----------------------------------------------------------------------
META_RECORD_SCHEMA: Dict[str, object] = {
    "type": "object",
    "required": ["type", "schema"],
    "properties": {
        "type": {"enum": ["meta"]},
        "schema": {"enum": [OBS_STREAM_SCHEMA_ID]},
        "command": {"type": "string"},
        "python": {"type": "string"},
        "kernels": {"enum": ["python", "compiled"]},
        "provenance": _PROVENANCE,
    },
}

SPAN_RECORD_SCHEMA: Dict[str, object] = {
    "type": "object",
    "required": ["type", "name", "elapsed_seconds", "depth"],
    "additionalProperties": False,
    "properties": {
        "type": {"enum": ["span"]},
        "name": {"type": "string"},
        "elapsed_seconds": _NUMBER,
        "depth": {"type": "integer"},
        "counts": _COUNTS,
        "tags": {"type": "object",
                 "additionalProperties": {"type": "string"}},
        "memory": _MEMORY,
    },
}

METRICS_RECORD_SCHEMA: Dict[str, object] = {
    "type": "object",
    "required": ["type", "metrics"],
    "additionalProperties": False,
    "properties": {
        "type": {"enum": ["metrics"]},
        "metrics": _METRICS_SNAPSHOT,
    },
}

_RECORD_SCHEMAS: Dict[str, Schema] = {
    "meta": META_RECORD_SCHEMA,
    "span": SPAN_RECORD_SCHEMA,
    "metrics": METRICS_RECORD_SCHEMA,
}

# ----------------------------------------------------------------------
# Snapshot document (vindicator.obs-snapshot/1)
# ----------------------------------------------------------------------
SNAPSHOT_SCHEMA: Dict[str, object] = {
    "type": "object",
    "required": ["schema", "metrics", "spans"],
    "properties": {
        "schema": {"enum": [OBS_SNAPSHOT_SCHEMA_ID]},
        "metrics": _METRICS_SNAPSHOT,
        "spans": {"type": "array", "items": {"$ref": "span_tree"}},
        "memory": _MEMORY,
        "meta": {"type": "object"},
    },
}

# ----------------------------------------------------------------------
# analyze --json document (vindicator.analyze/1)
# ----------------------------------------------------------------------
_EVENT = {
    "type": "object",
    "required": ["eid", "tid", "kind", "target"],
    "properties": {
        "eid": {"type": "integer"},
        "tid": {"type": ["string", "integer"]},
        "kind": {"type": "string"},
        "target": {"type": ["string", "integer", "null"]},
        "loc": {"type": ["string", "null"]},
    },
}

_RACE = {
    "type": "object",
    "required": ["first", "second", "relation", "distance"],
    "properties": {
        "first": _EVENT,
        "second": _EVENT,
        "relation": {"type": "string"},
        "race_class": {"type": ["string", "null"]},
        "distance": {"type": "integer"},
    },
}

_ANALYSIS = {
    "type": "object",
    "required": ["relation", "static_races", "dynamic_races", "races",
                 "counters"],
    "properties": {
        "relation": {"type": "string"},
        "static_races": {"type": "integer"},
        "dynamic_races": {"type": "integer"},
        "races": {"type": "array", "items": _RACE},
        "counters": _COUNTS,
    },
}

_VINDICATION = {
    "type": "object",
    "required": ["race", "verdict", "ls_constraints", "consecutive_edges",
                 "attempts", "elapsed_seconds"],
    "properties": {
        "race": _RACE,
        "verdict": {"enum": ["predictable race", "no predictable race",
                             "don't know"]},
        "ls_constraints": {"type": "integer"},
        "consecutive_edges": {"type": "integer"},
        "attempts": {"type": "integer"},
        "elapsed_seconds": _NUMBER,
        "witness_events": {"type": ["integer", "null"]},
        "cycle": {"type": ["array", "null"], "items": {"type": "integer"}},
    },
}

ANALYZE_SCHEMA: Dict[str, object] = {
    "type": "object",
    "required": ["schema", "trace", "analyses", "race_classes",
                 "vindications", "kernels"],
    "properties": {
        "schema": {"enum": [ANALYZE_SCHEMA_ID]},
        "trace": {
            "type": "object",
            "required": ["events", "threads", "provenance"],
            "properties": {
                "events": {"type": "integer"},
                "threads": {"type": "array"},
                "variables": {"type": "integer"},
                "provenance": _PROVENANCE,
            },
        },
        "analyses": {
            "type": "object",
            "required": ["hb", "wcp", "dc"],
            "additionalProperties": _ANALYSIS,
        },
        "race_classes": {"type": "object",
                         "additionalProperties": {"type": "integer"}},
        "vindications": {"type": "array", "items": _VINDICATION},
        "lockset": {
            "type": ["object", "null"],
            "properties": {
                "summary": {"type": "string"},
                "verdicts": {"type": "object",
                             "additionalProperties": {"type": "integer"}},
            },
        },
        "timing": {
            "type": "object",
            "properties": {
                "analysis_seconds": _NUMBER,
                "vindication_seconds": _NUMBER,
            },
        },
        "metrics": {"type": ["object", "null"]},
        "parallel": {
            "type": "object",
            "required": ["jobs"],
            "properties": {
                "jobs": {"type": "integer"},
            },
        },
        "kernels": {
            "type": "object",
            "required": ["backend"],
            "properties": {
                "backend": {"enum": ["python", "compiled"]},
            },
        },
    },
}


# ----------------------------------------------------------------------
# lint --json document (vindicator.lint/1)
# ----------------------------------------------------------------------
_SEVERITY = {"enum": ["error", "warning", "note"]}

_LINT_FINDING = {
    "type": "object",
    "required": ["code", "severity", "message", "event_index", "line"],
    "additionalProperties": False,
    "properties": {
        "code": {"type": "string"},
        "severity": _SEVERITY,
        "message": {"type": "string"},
        "event_index": {"type": "integer"},
        "line": {"type": ["integer", "null"]},
    },
}

LINT_SCHEMA: Dict[str, object] = {
    "type": "object",
    "required": ["schema", "source", "events", "summary", "findings"],
    "additionalProperties": False,
    "properties": {
        "schema": {"enum": [LINT_SCHEMA_ID]},
        "source": {"type": "string"},
        "events": {"type": "integer"},
        "summary": {
            "type": "object",
            "required": ["findings", "errors", "warnings", "notes"],
            "additionalProperties": False,
            "properties": {
                "findings": {"type": "integer"},
                "errors": {"type": "integer"},
                "warnings": {"type": "integer"},
                "notes": {"type": "integer"},
            },
        },
        "findings": {"type": "array", "items": _LINT_FINDING},
    },
}

# ----------------------------------------------------------------------
# scan --json document (vindicator.scan/1)
# ----------------------------------------------------------------------
_TIER = {"enum": ["thread-local", "read-shared", "guarded",
                  "race-candidate"]}
_ACCESS_KIND = {"enum": ["rd", "wr"]}

_SCAN_LOCATION = {
    "type": "object",
    "required": ["file", "line", "function", "kind"],
    "additionalProperties": False,
    "properties": {
        "file": {"type": "string"},
        "line": {"type": "integer"},
        "function": {"type": "string"},
        "kind": _ACCESS_KIND,
    },
}

_SCAN_FINDING = {
    "type": "object",
    "required": ["code", "severity", "message", "path", "locations"],
    "additionalProperties": False,
    "properties": {
        "code": {"type": "string"},
        "severity": _SEVERITY,
        "message": {"type": "string"},
        "path": {"type": "string"},
        "locations": {"type": "array", "items": _SCAN_LOCATION},
    },
}

_PLAN_SITE = {
    "type": "object",
    "required": ["file", "line", "col", "function", "path", "kind",
                 "tier", "instrument", "reached", "locks"],
    "additionalProperties": False,
    "properties": {
        "file": {"type": "string"},
        "line": {"type": "integer"},
        "col": {"type": "integer"},
        "function": {"type": "string"},
        "path": {"type": "string"},
        "kind": _ACCESS_KIND,
        "tier": _TIER,
        "instrument": {"type": "boolean"},
        "reached": {"type": "boolean"},
        "locks": {"type": "array", "items": {"type": "string"}},
    },
}

_SCAN_MODULE = {
    "type": "object",
    "required": ["path", "name", "counters", "entries", "locks",
                 "spawns", "tiers", "findings", "plan"],
    "additionalProperties": False,
    "properties": {
        "path": {"type": "string"},
        "name": {"type": "string"},
        "counters": {"type": "object",
                     "additionalProperties": {"type": "integer"}},
        "entries": {"type": "array", "items": {"type": "string"}},
        "locks": {"type": "array", "items": {"type": "string"}},
        "spawns": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["entry", "function", "file", "line", "via",
                             "in_loop"],
                "additionalProperties": False,
                "properties": {
                    "entry": {"type": "string"},
                    "function": {"type": "string"},
                    "file": {"type": "string"},
                    "line": {"type": "integer"},
                    "via": {"enum": ["thread", "subclass", "executor",
                                     "fork", "program"]},
                    "in_loop": {"type": "boolean"},
                },
            },
        },
        "tiers": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["path", "tier", "sites"],
                "additionalProperties": False,
                "properties": {
                    "path": {"type": "string"},
                    "tier": _TIER,
                    "sites": {"type": "integer"},
                },
            },
        },
        "findings": {"type": "array", "items": _SCAN_FINDING},
        "plan": {"type": "array", "items": _PLAN_SITE},
    },
}

SCAN_SCHEMA: Dict[str, object] = {
    "type": "object",
    "required": ["schema", "summary", "modules"],
    "additionalProperties": False,
    "properties": {
        "schema": {"enum": [SCAN_SCHEMA_ID]},
        "summary": {"type": "object",
                    "additionalProperties": {"type": "integer"}},
        "modules": {"type": "array", "items": _SCAN_MODULE},
    },
}


# ----------------------------------------------------------------------
# serve protocol (vindicator.serve/1)
# ----------------------------------------------------------------------
_SERVE_ERROR_CODES = ["bad-frame", "bad-request", "unknown-session",
                      "session-exists", "session-finished",
                      "malformed-trace", "trace-format", "checkpoint",
                      "too-large", "internal"]

_SESSION_CONFIG = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "gc_window": {"type": "integer"},
        "build_graph": {"type": "boolean"},
        "vindicate_all": {"type": "boolean"},
        "policy": {"type": "string"},
        "transitive_force": {"type": "boolean"},
        "require_fork_closed": {"type": ["boolean", "null"]},
    },
}

_SESSION_STATUS = {
    "type": "object",
    "required": ["session", "events", "threads", "finished",
                 "gc_runs", "gc_retired", "trace_hash"],
    "properties": {
        "session": {"type": "string"},
        "events": {"type": "integer"},
        "threads": {"type": "integer"},
        "finished": {"type": "boolean"},
        "gc_runs": {"type": "integer"},
        "gc_retired": {"type": "integer"},
        "trace_hash": {"type": "string"},
        "races": {"type": "object",
                  "additionalProperties": {"type": "integer"}},
        "kernels": {"enum": ["python", "compiled"]},
    },
}

#: Per-op request contracts. Every request carries ``op``; session ops
#: carry ``session``.
_SERVE_REQUEST_SCHEMAS: Dict[str, Schema] = {
    "ping": {"type": "object", "required": ["op"]},
    "sessions": {"type": "object", "required": ["op"]},
    "shutdown": {"type": "object", "required": ["op"]},
    "hello": {
        "type": "object",
        "required": ["op", "session"],
        "additionalProperties": False,
        "properties": {
            "op": {"enum": ["hello"]},
            "session": {"type": "string"},
            "config": _SESSION_CONFIG,
            "resume": {"type": ["string", "null"]},
        },
    },
    "events": {
        "type": "object",
        "required": ["op", "session", "lines"],
        "additionalProperties": False,
        "properties": {
            "op": {"enum": ["events"]},
            "session": {"type": "string"},
            "lines": {"type": "array", "items": {"type": "string"}},
        },
    },
    "status": {"type": "object", "required": ["op", "session"],
               "properties": {"session": {"type": "string"}}},
    "races": {"type": "object", "required": ["op", "session"],
              "properties": {"session": {"type": "string"}}},
    "finish": {"type": "object", "required": ["op", "session"],
               "properties": {"session": {"type": "string"}}},
    "checkpoint": {
        "type": "object",
        "required": ["op", "session"],
        "properties": {
            "session": {"type": "string"},
            "path": {"type": ["string", "null"]},
        },
    },
}

#: Fields each successful response must carry (beyond the envelope).
_SERVE_RESPONSE_REQUIRED: Dict[str, List[str]] = {
    "ping": [],
    "sessions": ["sessions"],
    "shutdown": [],
    "hello": ["session", "resumed", "events"],
    "events": ["accepted", "events"],
    "status": ["status"],
    "races": ["races"],
    "finish": ["report", "trace_hash"],
    "checkpoint": ["path", "bytes", "events", "trace_hash"],
}

_SERVE_RESPONSE_FIELD_SCHEMAS: Dict[str, Schema] = {
    "sessions": {"type": "array", "items": _SESSION_STATUS},
    "session": {"type": "string"},
    "resumed": {"type": "boolean"},
    "events": {"type": "integer"},
    "accepted": {"type": "integer"},
    "status": _SESSION_STATUS,
    "races": {
        "type": "object",
        "required": ["analyses", "race_classes"],
        "properties": {
            "analyses": {"type": "object", "additionalProperties": _ANALYSIS},
            "race_classes": {"type": "object",
                             "additionalProperties": {"type": "integer"}},
        },
    },
    "report": ANALYZE_SCHEMA,
    "trace_hash": {"type": "string"},
    "path": {"type": "string"},
    "bytes": {"type": "integer"},
}

_SERVE_ERROR = {
    "type": "object",
    "required": ["code", "message"],
    "properties": {
        "code": {"enum": _SERVE_ERROR_CODES},
        "message": {"type": "string"},
        "event_index": {"type": "integer"},
        "line_number": {"type": "integer"},
    },
}


def validate_serve_request(doc: object, path: str = "$") -> str:
    """Validate one ``vindicator.serve/1`` request; returns its ``op``."""
    if not isinstance(doc, dict):
        raise SchemaError(path, f"request must be an object, got "
                                f"{type(doc).__name__}")
    op = doc.get("op")
    schema = _SERVE_REQUEST_SCHEMAS.get(op) if isinstance(op, str) else None
    if schema is None:
        raise SchemaError(path, f"unknown op {op!r}")
    validate(doc, schema, path, defs=_DEFS)
    return op  # type: ignore[return-value]


def validate_serve_response(doc: object, path: str = "$") -> str:
    """Validate one ``vindicator.serve/1`` response; returns its ``op``."""
    if not isinstance(doc, dict):
        raise SchemaError(path, f"response must be an object, got "
                                f"{type(doc).__name__}")
    validate(doc, {
        "type": "object",
        "required": ["schema", "ok", "op"],
        "properties": {
            "schema": {"enum": [SERVE_SCHEMA_ID]},
            "ok": {"type": "boolean"},
            "op": {"type": "string"},
        },
    }, path, defs=_DEFS)
    op = doc["op"]
    if not doc["ok"]:
        if "error" not in doc:
            raise SchemaError(path, "failed response missing 'error'")
        validate(doc["error"], _SERVE_ERROR, f"{path}.error", defs=_DEFS)
        return op  # type: ignore[return-value]
    for key in _SERVE_RESPONSE_REQUIRED.get(op, []):
        if key not in doc:
            raise SchemaError(path, f"ok {op!r} response missing {key!r}")
    for key, sub in _SERVE_RESPONSE_FIELD_SCHEMAS.items():
        if key in doc:
            validate(doc[key], sub, f"{path}.{key}", defs=_DEFS)
    return op  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def validate_snapshot(doc: object) -> None:
    """Validate a ``vindicator.obs-snapshot/1`` document."""
    validate(doc, SNAPSHOT_SCHEMA, defs=_DEFS)


def validate_analyze_document(doc: object) -> None:
    """Validate a ``vindicator.analyze/1`` document."""
    validate(doc, ANALYZE_SCHEMA, defs=_DEFS)


def validate_lint_document(doc: object) -> None:
    """Validate a ``vindicator.lint/1`` document."""
    validate(doc, LINT_SCHEMA, defs=_DEFS)


def validate_scan_document(doc: object) -> None:
    """Validate a ``vindicator.scan/1`` document."""
    validate(doc, SCAN_SCHEMA, defs=_DEFS)


def validate_jsonl_record(record: object, path: str = "$") -> str:
    """Validate one stream record; returns its ``type``."""
    if not isinstance(record, dict):
        raise SchemaError(path, f"record must be an object, got "
                                f"{type(record).__name__}")
    kind = record.get("type")
    schema = _RECORD_SCHEMAS.get(kind) if isinstance(kind, str) else None
    if schema is None:
        raise SchemaError(path, f"unknown record type {kind!r}")
    validate(record, schema, path, defs=_DEFS)
    return kind  # type: ignore[return-value]


def validate_jsonl_lines(lines: Iterable[str], source: str = "<stream>") -> Dict[str, int]:
    """Validate a whole ``vindicator.obs/1`` stream.

    Enforces the stream grammar — first record ``meta``, exactly one
    trailing ``metrics`` record — and returns record counts by type.
    """
    counts: Dict[str, int] = {}
    kinds: List[str] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        where = f"{source}:{lineno}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(where, f"invalid JSON: {exc}") from exc
        kind = validate_jsonl_record(record, where)
        counts[kind] = counts.get(kind, 0) + 1
        kinds.append(kind)
    if not kinds:
        raise SchemaError(source, "empty metrics stream")
    if kinds[0] != "meta":
        raise SchemaError(source, f"first record must be 'meta', "
                                  f"got {kinds[0]!r}")
    if counts.get("metrics", 0) != 1 or kinds[-1] != "metrics":
        raise SchemaError(source, "stream must end with exactly one "
                                  "'metrics' record")
    return counts


def validate_jsonl_path(path: str) -> Dict[str, int]:
    """Validate a ``--metrics`` JSONL artifact on disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return validate_jsonl_lines(fh, source=path)
