"""An incrementally built trace that detectors can analyze while it grows.

:class:`StreamingTrace` is a :class:`~repro.core.trace.Trace` grown one
event at a time by ``Trace``'s own indexing step (see "Trace columns"
in ``docs/ALGORITHMS.md``), so the epoch detectors
(:mod:`repro.analysis.smarttrack`) run on a client stream exactly as
they run on a loaded trace, and the session finishes on the stream
itself. What a stream adds is its validation: the thread-structure
checks ``Trace`` makes after its pass run online, before the step,
rejecting the first bad event with a
:class:`~repro.core.exceptions.MalformedTraceError` carrying its stream
index (the daemon parses untrusted client bytes, so nothing may escape
as a raw ``KeyError``/``IndexError``). A rejected event leaves the trace
as it was. Like any ``Trace``, the stream holds its events as columns
only, and keeps the liveness sets the metadata GC (:mod:`repro.serve.gc`)
reads.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.core.events import (CODE_ACQUIRE, CODE_BEGIN, CODE_BY_KIND_ID,
                               CODE_END, CODE_FORK, CODE_JOIN, CODE_RELEASE,
                               CODE_WRITE, Event, Target, Tid)
from repro.core.exceptions import MalformedTraceError
from repro.core.trace import Row, Trace, _describe


class StreamingTrace(Trace):
    """A growing, validated event stream.

    Args:
        require_fork_closed: Reject events from threads that were never
            forked (the first thread ever seen — the root — excepted).
            Metadata GC is sound only on fork-closed streams: a thread
            appearing out of nowhere starts with an empty clock and
            could race with already-retired entries, so GC-enabled
            sessions must run with this on.
    """

    def __init__(self, require_fork_closed: bool = False,
                 provenance: Optional[Dict[str, object]] = None):
        super().__init__(())
        self.require_fork_closed = require_fork_closed
        self.provenance = dict(provenance or {})
        self._index = self._indexer(validate=True)
        # Liveness, by thread index.
        self._forked: Set[int] = set()
        self._joined: Set[int] = set()
        self._ended: Set[int] = set()
        #: Joined or ended (one lookup per event).
        self._stopped: Set[int] = set()

    # ------------------------------------------------------------------
    # Liveness bookkeeping consumed by the GC driver (thread indices)
    # ------------------------------------------------------------------
    def dead_tids(self) -> Set[int]:
        """Threads that can produce no further events (ended or joined)."""
        return self._ended | self._joined

    def joined_tids(self) -> Set[int]:
        return set(self._joined)

    def cover_tids(self) -> List[int]:
        """Threads whose clocks constrain retirement: every started
        thread that is not dead, plus forked-but-not-yet-begun children
        (their stored fork snapshots lower-bound their future clocks)."""
        stopped, forked = self._stopped, self._forked
        return [ti for ti, eids in enumerate(self.thread_eids)
                if ti not in stopped and (eids or ti in forked)]

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def append(self, e: Event) -> bool:
        """:meth:`accept` for an :class:`Event`."""
        return self.accept(*self.row_of(e))

    def row_of(self, e: Event) -> Row:
        """``e`` as an indexing row, checking that it is the next event:
        its eid must be the stream position."""
        eid = len(self.codes)
        if e.eid != eid:
            raise MalformedTraceError(
                f"{e}: event id does not match stream position {eid}",
                event_index=eid)
        return e.tid, CODE_BY_KIND_ID[id(e.kind)], e.target, e.loc

    def accept(self, tid: Tid, code: int, target: Optional[Target],
               loc: Optional[str]) -> bool:
        """Validate and accept one event, given as its fields (``code``
        its kind code), at the next stream position: the thread checks
        ``Trace`` makes after its pass, evaluated online, then
        ``Trace``'s indexing step (which makes the lock checks). The
        stream keeps no :class:`Event`. Returns whether an interning
        table grew, so the detectors must size their tables before they
        handle the event."""
        eid = len(self.codes)
        tid_index, thread_eids = self.tid_index, self.thread_eids
        ti = tid_index.get(tid)
        if ti is not None and ti in self._stopped:
            if ti in self._joined:
                raise MalformedTraceError(
                    f"{_describe(eid, tid, code, target)}: thread {tid!r} "
                    "executes after its join", event_index=eid)
            raise MalformedTraceError(
                f"{_describe(eid, tid, code, target)}: thread {tid!r} "
                "executes after its end", event_index=eid)
        new_thread = ti is None or not thread_eids[ti]
        if (new_thread and self.require_fork_closed and eid
                and (ti is None or ti not in self._forked)):
            raise MalformedTraceError(
                f"{_describe(eid, tid, code, target)}: thread {tid!r} appears "
                "without a fork (this session runs metadata GC, which "
                "requires a fork-closed stream)",
                event_index=eid)

        if code <= CODE_WRITE or CODE_JOIN < code < CODE_BEGIN:
            if target is None:
                raise MalformedTraceError(
                    f"{_describe(eid, tid, code, target)}: access without a "
                    "target", event_index=eid)
        elif code <= CODE_RELEASE:
            if target is None:
                operation = "acquire" if code == CODE_ACQUIRE else "release"
                raise MalformedTraceError(
                    f"{_describe(eid, tid, code, target)}: {operation} "
                    "without a target", event_index=eid)
        elif code == CODE_FORK:
            if target == tid:
                raise MalformedTraceError(
                    f"{_describe(eid, tid, code, target)}: thread forks "
                    "itself", event_index=eid)
            child = tid_index.get(target)
            if child in self._forked:
                raise MalformedTraceError(
                    f"{_describe(eid, tid, code, target)}: thread "
                    f"{target!r} forked twice", event_index=eid)
            if child is not None and thread_eids[child]:
                raise MalformedTraceError(
                    f"{_describe(eid, tid, code, target)}: thread "
                    f"{target!r} executes before its fork", event_index=eid)
        elif code == CODE_JOIN:
            if tid_index.get(target) in self._joined:
                raise MalformedTraceError(
                    f"{_describe(eid, tid, code, target)}: thread "
                    f"{target!r} joined twice", event_index=eid)
        elif code == CODE_BEGIN and not new_thread:
            raise MalformedTraceError(
                f"{_describe(eid, tid, code, target)}: begin is not "
                "thread's first event", event_index=eid)

        grew = self._index(((tid, code, target, loc),))
        if code > CODE_RELEASE:
            if code == CODE_FORK:
                self._forked.add(self.tgt[eid])
            elif code == CODE_JOIN:
                self._joined.add(self.tgt[eid])
                self._stopped.add(self.tgt[eid])
            elif code == CODE_END:
                self._ended.add(self.tix[eid])
                self._stopped.add(self.tix[eid])
        return grew
