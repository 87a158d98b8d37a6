"""Plain-text trace format: reading and writing execution traces.

The format is line-oriented, one event per line, in trace order::

    # comments and blank lines are ignored
    T1 wr x    Loader.load():42
    T1 acq m
    T2 rd x    Cache.get():17
    T1 fork T3

Fields are whitespace-separated: thread id, operation, target (omitted
for ``begin``/``end``), and an optional source location. Operations are
the short names of :class:`~repro.core.events.EventKind` (``rd``, ``wr``,
``acq``, ``rel``, ``fork``, ``join``, ``begin``, ``end``, ``vwr``,
``vrd``). This is the interchange format accepted by the CLI, so traces
collected from other tools can be vindicated offline.
"""

from __future__ import annotations

import io
from bisect import bisect_right
from pathlib import Path
from typing import (Dict, Iterable, Iterator, List, Optional, TextIO, Tuple,
                    Union)

from repro import obs
from repro.core.events import (CODE_BY_KIND_ID, KIND_BY_CODE, Event,
                               EventKind, Tid, _new_event)
from repro.core.exceptions import MalformedTraceError, TraceFormatError
from repro.core.trace import Row, Trace

_KIND_BY_NAME = {kind.value: kind for kind in EventKind}
_NO_TARGET = (EventKind.BEGIN, EventKind.END)
_THREAD_TARGET = (EventKind.FORK, EventKind.JOIN)
#: Operation name -> (kind code, whether the target is a thread), for
#: the operations that take a target: the file parser's fast path.
_TARGETED_OPS = {kind.value: (CODE_BY_KIND_ID[id(kind)], kind in _THREAD_TARGET)
                 for kind in EventKind if kind not in _NO_TARGET}


def _parse_tid(token: str) -> Tid:
    """``T1``/``t1``/``1`` -> 1; anything else stays an opaque string.

    Normalising here makes the format round-trip: :func:`_write` renders
    integer tids as ``T<n>`` (the documented spelling), and
    ``Event.__str__``'s own ``T`` prefix then shows ``@T1``, not ``@TT1``.
    """
    if token[:1] in ("T", "t") and token[1:].isdigit():
        return int(token[1:])
    if token.isdigit():
        return int(token)
    return token


def _format_tid(tid: Tid) -> str:
    return f"T{tid}" if isinstance(tid, int) else str(tid)


def dump_trace(trace: Trace, target: Union[str, Path, TextIO]) -> None:
    """Write ``trace`` in the text format to a path or open file."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as handle:
            _write(trace, handle)
    else:
        _write(trace, target)


def dumps_trace(trace: Trace) -> str:
    """The text-format rendering of ``trace``."""
    buffer = io.StringIO()
    _write(trace, buffer)
    return buffer.getvalue()


def format_event(e: Event) -> str:
    """One event as a text-format line (without the newline).

    The inverse of :func:`parse_event_line`; streaming clients use this
    to frame events for the serve protocol's ``events`` op.
    """
    parts = [_format_tid(e.tid), e.kind.value]
    if e.kind in _THREAD_TARGET:
        parts.append(_format_tid(e.target))
    elif e.kind not in _NO_TARGET:
        parts.append(str(e.target))
    if e.loc is not None:
        parts.append(str(e.loc))
    return " ".join(parts)


def _write(trace: Trace, handle: TextIO) -> None:
    handle.write("# repro trace: {} events, {} threads\n".format(
        len(trace), len(trace.threads)))
    for e in trace:
        handle.write(format_event(e) + "\n")


def load_trace(source: Union[str, Path, TextIO], validate: bool = True) -> Trace:
    """Parse a text-format trace from a path or open file."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            trace = _read(handle, validate)
        trace.provenance = {"kind": "file", "path": str(source)}
        return trace
    return _read(source, validate)


def loads_trace(text: str, validate: bool = True) -> Trace:
    """Parse a text-format trace from a string."""
    return _read(io.StringIO(text), validate)


def load_events(source: Union[str, Path, TextIO]) -> Tuple[List[Event], List[int]]:
    """Parse a text-format trace into raw events, skipping all structural
    validation (no :class:`Trace` is built).

    Returns ``(events, line_numbers)`` — parallel lists mapping each
    event to its 1-based source line. This is the entry point for tools
    that must accept malformed traces, like ``vindicator lint``.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            return _events(handle)
    return _events(source)


def parse_event_line(line: str, *, eid: int, line_number: int = -1) -> Optional[Event]:
    """Parse one text-format line into an :class:`Event` with id ``eid``.

    Returns ``None`` for blank lines and ``#`` comments. Raises
    :class:`TraceFormatError` (carrying ``line_number``) for anything
    that is not a well-formed event line. This is the single-line entry
    point used both by file parsing here and by the streaming service,
    which receives one line per frame from untrusted clients.
    """
    line = line.strip()
    if not line or line.startswith("#"):
        return None
    parts = line.split(None, 3)
    if len(parts) < 2:
        raise TraceFormatError("expected '<tid> <op> [target] [loc]'",
                               line_number=line_number)
    tid, op = _parse_tid(parts[0]), parts[1]
    kind = _KIND_BY_NAME.get(op)
    if kind is None:
        raise TraceFormatError(f"unknown operation {op!r}", line_number=line_number)
    target: object
    if kind in _NO_TARGET:
        target = None
        loc = parts[2] if len(parts) > 2 else None
        if len(parts) > 3:
            loc = f"{parts[2]} {parts[3]}"
    else:
        if len(parts) < 3:
            raise TraceFormatError(f"operation {op!r} needs a target",
                                   line_number=line_number)
        target = (_parse_tid(parts[2]) if kind in _THREAD_TARGET
                  else parts[2])
        loc = parts[3] if len(parts) > 3 else None
    return _new_event(eid, tid, kind, target, loc)


def _events(handle: TextIO) -> Tuple[List[Event], List[int]]:
    lines = LineMap()
    events = [_new_event(eid, tid, KIND_BY_CODE[code], target, loc)
              for eid, (tid, code, target, loc)
              in enumerate(parse_lines(handle, {}, {}, lines))]
    return events, [lines.line(eid) for eid in range(len(events))]


class LineMap:
    """Event index -> 1-based line number within the parsed lines, kept
    only where comments or blank lines shift the two apart: one entry
    per run of such lines, none per event. :func:`parse_lines` fills it.
    """

    __slots__ = ("_eids", "_lines", "events")

    def __init__(self) -> None:
        #: The first event after each run of skipped lines, and its line.
        self._eids: List[int] = []
        self._lines: List[int] = []
        #: Events parsed, once the lines are exhausted.
        self.events = 0

    def _skipped(self, eid: int, number: int) -> None:
        """Line ``number`` holds no event; ``eid`` is the next event's."""
        if self._eids and self._eids[-1] == eid:
            self._lines[-1] = number + 1
        else:
            self._eids.append(eid)
            self._lines.append(number + 1)

    def line(self, eid: int) -> int:
        """The line of event ``eid``."""
        i = bisect_right(self._eids, eid)
        if not i:
            return eid + 1
        return self._lines[i - 1] + eid - self._eids[i - 1]


def parse_lines(lines: Iterable[str], tids: Dict[str, Tid],
                strings: Dict[str, str],
                line_map: Optional[LineMap] = None) -> Iterator[Row]:
    """The events of ``lines`` as the indexing step's ``(tid, code,
    target, loc)`` rows (:data:`repro.core.trace.Row`), in order, read
    lazily: the file parser feeds them straight into
    :meth:`Trace.from_rows <repro.core.trace.Trace.from_rows>`, and no
    :class:`Event` is built. The first bad line raises
    :func:`parse_event_line`'s :class:`TraceFormatError`, with its
    1-based line number within ``lines``. ``line_map``, when given,
    learns where comments and blank lines shift event indices away from
    line numbers.

    Lines of the common shape (``<tid> <op> <target> [loc]`` with a
    targeted op) are parsed here: each distinct tid token is parsed
    once into ``tids``, and each distinct target and location string is
    kept once in ``strings``. The caller owns both tables, so a serve
    session reuses them across its frames. Every other line, comments
    and malformed ones included, goes through :func:`parse_event_line`
    itself.
    """
    ops = _TARGETED_OPS
    code_of = CODE_BY_KIND_ID
    skipped = 0
    number = 0
    for number, raw in enumerate(lines, start=1):
        parts = raw.split(None, 3)
        op = ops.get(parts[1]) if len(parts) > 2 else None
        if op is None or parts[0][0] == "#":
            event = parse_event_line(raw, eid=number - 1 - skipped,
                                     line_number=number)
            if event is None:
                if line_map is not None:
                    line_map._skipped(number - 1 - skipped, number)
                skipped += 1
                continue
            yield (event.tid, code_of[id(event.kind)], event.target,
                   event.loc)
            continue
        tid = tids.get(parts[0])
        if tid is None:
            tid = tids[parts[0]] = _parse_tid(parts[0])
        code, thread_target = op
        if thread_target:
            target = tids.get(parts[2])
            if target is None:
                target = tids[parts[2]] = _parse_tid(parts[2])
        else:
            target = strings.setdefault(parts[2], parts[2])
        loc = None
        if len(parts) == 4:
            loc = parts[3].rstrip()
            loc = strings.setdefault(loc, loc)
        yield tid, code, target, loc
    if line_map is not None:
        line_map.events = number - skipped


def _read(handle: TextIO, validate: bool) -> Trace:
    """The file parser: one pass that tokenizes each line and indexes
    its event into the trace's columns."""
    lines = LineMap()
    rows = parse_lines(handle, {}, {}, lines)
    try:
        with obs.span("traces.parse"):
            return Trace.from_rows(rows, validate=validate)
    except MalformedTraceError as exc:
        # A malformed line anywhere in the file is reported ahead of a
        # structural error, so tokenize the rest first.
        for _ in rows:
            pass
        # Map the failing event back to its source line so the error is
        # actionable for whoever logged the trace (the structural check
        # reports an *event index*, which the file's comments and blank
        # lines shift away from the line number).
        line = -1
        if 0 <= exc.event_index < lines.events:
            line = lines.line(exc.event_index)
        raise TraceFormatError(f"structurally invalid trace: {exc}",
                               line_number=line) from exc
