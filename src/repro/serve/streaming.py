"""An incrementally built trace that detectors can analyze while it grows.

:class:`StreamingTrace` grows the columns and interning tables of a
:class:`~repro.core.trace.Trace` (``codes``, ``tix``, ``tgt``,
``held``, ``local_time``, ``thread_eids`` and ``tid_names``/
``tid_index``/``var_names``/``lock_names``/``vol_names``; see "Trace
columns" in ``docs/ALGORITHMS.md``) one event at a time, so the epoch
detectors (:mod:`repro.analysis.smarttrack`) run on a client stream
exactly as they run on a loaded trace. It performs the same structural
validation ``Trace`` does at construction, but incrementally, rejecting
the first bad event with a
:class:`~repro.core.exceptions.MalformedTraceError` carrying its stream
index (the daemon parses untrusted client bytes, so nothing may escape
as a raw ``KeyError``/``IndexError``).

One difference from the batch pass: a fork/join target is interned when
the fork or join arrives, because the stream cannot wait for the
threads that execute later. Thread indices therefore differ from a
``Trace`` of the same events whenever a thread is forked before another
thread's first event; no detector verdict depends on index order.

No ``Event`` is retained: these columns, a per-event source location
and the few begin/end events are the whole record of the stream.
:meth:`StreamingTrace.to_packed` derives the packed form
(:mod:`repro.traces.packed`, the checkpoint payload) from them, and
:meth:`StreamingTrace.to_trace` materialises a real ``Trace`` when the
session finishes and the batch finalisation pipeline takes over.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Set, Tuple

from repro.core.events import (CODE_ACQUIRE, CODE_BY_KIND_ID, CODE_FORK,
                               CODE_JOIN, CODE_OTHER, CODE_RELEASE,
                               CODE_VOLATILE_READ, CODE_WRITE, Event,
                               EventKind, Target, Tid, _new_event)
from repro.core.exceptions import MalformedTraceError
from repro.core.trace import Trace
from repro.traces.packed import KIND_ORDER, PackedTrace, _intern

#: Event kind by event code (begin/end, which share one, are kept whole).
_KIND_BY_CODE = (EventKind.READ, EventKind.WRITE, EventKind.ACQUIRE,
                 EventKind.RELEASE, EventKind.FORK, EventKind.JOIN,
                 EventKind.VOLATILE_WRITE, EventKind.VOLATILE_READ)
#: Packed kind byte by event code.
_PACKED_KIND = [KIND_ORDER.index(kind) for kind in _KIND_BY_CODE]


class StreamingTrace:
    """A growing, validated event stream with ``Trace``'s columns.

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
        self.require_fork_closed = require_fork_closed
        self.provenance: Dict[str, object] = dict(provenance or {})
        # The columns and tables of Trace, grown by append.
        self.codes = bytearray()
        self.tix: List[int] = []
        self.tgt: List[int] = []
        self.held: List[Optional[Tuple[int, ...]]] = []
        #: Thread-local 1-based times, indexable by eid.
        self.local_time: List[int] = []
        self.thread_eids: List[List[int]] = []
        self.tid_names: List[Tid] = []
        self.tid_index: Dict[Tid, int] = {}
        self.var_names: List[Target] = []
        self.lock_names: List[Target] = []
        self.vol_names: List[Target] = []
        self._var_ix: Dict[Target, int] = {}
        self._lock_ix: Dict[Target, int] = {}
        self._vol_ix: Dict[Target, int] = {}
        #: The rest of each event: its source location, and the begin/end
        #: events whole (their code does not tell begin from end, and a
        #: target they carry has no column).
        self._locs: List[Optional[str]] = []
        self._others: Dict[int, Event] = {}
        # The packed columns derived so far (extended by to_packed).
        self._pk_kind = array("B")
        self._pk_tid = array("I")
        self._pk_target = array("i")
        self._pk_loc = array("i")
        self._pk_targets: List[Target] = []
        self._pk_locs: List[str] = []
        self._pk_target_ix: Dict[Target, int] = {}
        self._pk_loc_ix: Dict[str, int] = {}
        # Validation state. Per thread index: its open lock indices and
        # the tuple of them (shared by the accesses between two lock
        # operations); per lock index: its holder's thread index.
        self._lock_stacks: List[List[int]] = []
        self._held_now: List[Optional[Tuple[int, ...]]] = []
        self._holders: Dict[int, int] = {}
        self._threads: Dict[Tid, None] = {}  # executing, insertion-ordered
        self._forked: Set[Tid] = set()
        self._joined: Set[Tid] = set()
        self._ended: Set[Tid] = set()
        #: Thread indices that are joined or ended (one lookup per event).
        self._stopped: Set[int] = set()

    # ------------------------------------------------------------------
    # Trace surface
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.codes)

    @property
    def threads(self) -> List[Tid]:
        """Executing thread ids in order of first appearance."""
        return list(self._threads)

    # ------------------------------------------------------------------
    # Liveness bookkeeping consumed by the GC driver
    # ------------------------------------------------------------------
    def dead_tids(self) -> Set[Tid]:
        """Threads that can produce no further events (ended or joined)."""
        return self._ended | self._joined

    def joined_tids(self) -> Set[Tid]:
        return set(self._joined)

    def cover_tids(self) -> List[Tid]:
        """Threads whose clocks constrain retirement: every started
        thread that is not dead, plus forked-but-not-yet-begun children
        (their stored fork snapshots lower-bound their future clocks)."""
        dead = self.dead_tids()
        live = [tid for tid in self._threads if tid not in dead]
        live.extend(tid for tid in self._forked
                    if tid not in self._threads and tid not in self._joined)
        return live

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def _intern_tid(self, tid: Tid) -> int:
        ti = self.tid_index[tid] = len(self.tid_names)
        self.tid_names.append(tid)
        self.thread_eids.append([])
        self._lock_stacks.append([])
        self._held_now.append(None)
        return ti

    def append(self, e: Event) -> bool:
        """Validate and accept one event (the mirror of ``Trace``'s
        construction-time checks, evaluated online). Returns whether an
        interning table grew, so the detectors must size their tables
        before they handle ``e``."""
        eid = len(self.codes)
        if e.eid != eid:
            raise MalformedTraceError(
                f"{e}: event id does not match stream position {eid}",
                event_index=eid)
        tid, kind, target = e.tid, e.kind, e.target
        ti = self.tid_index.get(tid)
        if ti is not None and ti in self._stopped:
            if tid in self._joined:
                raise MalformedTraceError(
                    f"{e}: thread {tid!r} executes after its join",
                    event_index=eid)
            raise MalformedTraceError(
                f"{e}: thread {tid!r} executes after its end", event_index=eid)
        new_thread = ti is None or not self.thread_eids[ti]
        if (new_thread and self.require_fork_closed and self._threads
                and tid not in self._forked):
            raise MalformedTraceError(
                f"{e}: thread {tid!r} appears without a fork (this session "
                "runs metadata GC, which requires a fork-closed stream)",
                event_index=eid)

        code = CODE_BY_KIND_ID[id(kind)]
        if code <= CODE_WRITE or CODE_JOIN < code < CODE_OTHER:
            if target is None:
                raise MalformedTraceError(
                    f"{e}: access without a target", event_index=eid)
        elif code == CODE_ACQUIRE:
            if target is None:
                raise MalformedTraceError(
                    f"{e}: acquire without a target", event_index=eid)
            li = self._lock_ix.get(target)
            holder = None if li is None else self._holders.get(li)
            if holder is not None:
                raise MalformedTraceError(
                    f"{e}: lock {target!r} already held by thread "
                    f"{self.tid_names[holder]!r} (locks are non-reentrant)",
                    event_index=eid)
        elif code == CODE_RELEASE:
            if target is None:
                raise MalformedTraceError(
                    f"{e}: release without a target", event_index=eid)
            li = self._lock_ix.get(target)
            holder = None if li is None else self._holders.get(li)
            if holder is None or holder != ti:
                raise MalformedTraceError(
                    f"{e}: releases lock {target!r} not held by thread {tid!r}",
                    event_index=eid)
            if self._lock_stacks[holder][-1] != li:
                raise MalformedTraceError(
                    f"{e}: releases lock {target!r} out of nesting order",
                    event_index=eid)
        elif code == CODE_FORK:
            if target == tid:
                raise MalformedTraceError(
                    f"{e}: thread forks itself", event_index=eid)
            if target in self._forked:
                raise MalformedTraceError(
                    f"{e}: thread {target!r} forked twice", event_index=eid)
            if target in self._threads:
                raise MalformedTraceError(
                    f"{e}: thread {target!r} executes before its fork",
                    event_index=eid)
        elif code == CODE_JOIN:
            if target in self._joined:
                raise MalformedTraceError(
                    f"{e}: thread {target!r} joined twice", event_index=eid)
        elif kind is EventKind.BEGIN and not new_thread:
            raise MalformedTraceError(
                f"{e}: begin is not thread's first event", event_index=eid)

        # All checks passed: commit.
        grew = ti is None
        if ti is None:
            ti = self._intern_tid(tid)
        if new_thread:
            self._threads[tid] = None
        own = self.thread_eids[ti]
        own.append(eid)
        self.local_time.append(len(own))
        self.codes.append(code)
        self.tix.append(ti)
        held: Optional[Tuple[int, ...]] = None
        if code <= CODE_WRITE:
            xi = self._var_ix.get(target)
            if xi is None:
                xi = self._var_ix[target] = len(self.var_names)
                self.var_names.append(target)
                grew = True
            held = self._held_now[ti]
        elif code <= CODE_RELEASE:
            xi = self._lock_ix.get(target)
            if xi is None:
                xi = self._lock_ix[target] = len(self.lock_names)
                self.lock_names.append(target)
                grew = True
            stack = self._lock_stacks[ti]
            if code == CODE_ACQUIRE:
                self._holders[xi] = ti
                stack.append(xi)
            else:
                del self._holders[xi]
                stack.pop()
            self._held_now[ti] = tuple(stack) or None
        elif code <= CODE_JOIN:
            xi = self.tid_index.get(target)
            if xi is None:
                xi = self._intern_tid(target)
                grew = True
            if code == CODE_FORK:
                self._forked.add(target)
            else:
                self._joined.add(target)
                self._stopped.add(xi)
        elif code <= CODE_VOLATILE_READ:
            xi = self._vol_ix.get(target)
            if xi is None:
                xi = self._vol_ix[target] = len(self.vol_names)
                self.vol_names.append(target)
                grew = True
        else:
            xi = -1
            self._others[eid] = e
            if kind is EventKind.END:
                self._ended.add(tid)
                self._stopped.add(ti)
        self.tgt.append(xi)
        self.held.append(held)
        self._locs.append(e.loc)
        return grew

    # ------------------------------------------------------------------
    # Materialisation
    # ------------------------------------------------------------------
    def to_packed(self) -> PackedTrace:
        """The accepted events in packed form (the checkpoint payload),
        equal to :func:`~repro.traces.packed.pack` of the same events.

        Derived from the columns: the packed thread table is the
        executing threads in order of first appearance, and targets and
        locations are interned in event order. The derived columns are
        kept, so each call interns only the events accepted since the
        last; the result is a copy, unaffected by later appends.
        """
        codes, tgt, locs, others = self.codes, self.tgt, self._locs, self._others
        names = self._names_by_code()
        position = {tid: i for i, tid in enumerate(self._threads)}
        packed_tid = [position.get(tid, -1) for tid in self.tid_names]
        tix = self.tix
        pk_kind, pk_tid = self._pk_kind, self._pk_tid
        pk_target, pk_loc = self._pk_target, self._pk_loc
        targets, target_ix = self._pk_targets, self._pk_target_ix
        loc_names, loc_ix = self._pk_locs, self._pk_loc_ix
        for eid in range(len(pk_kind), len(codes)):
            code = codes[eid]
            pk_tid.append(packed_tid[tix[eid]])
            if code == CODE_OTHER:
                other = others[eid]
                pk_kind.append(KIND_ORDER.index(other.kind))
                target = other.target
            else:
                pk_kind.append(_PACKED_KIND[code])
                target = names[code][tgt[eid]]
            pk_target.append(_intern(target, target_ix, targets))
            pk_loc.append(_intern(locs[eid], loc_ix, loc_names))
        return PackedTrace(
            kinds=array("B", pk_kind),
            tid_idx=array("I", pk_tid),
            target_idx=array("i", pk_target),
            loc_idx=array("i", pk_loc),
            local_time=array("I", self.local_time),
            tids=list(self._threads),
            targets=list(targets),
            locs=list(loc_names),
            provenance=dict(self.provenance),
        )

    def to_trace(self) -> Trace:
        """The accepted events as a real :class:`Trace` (for the batch
        finalisation pipeline), decoded from the columns. Structural
        validation is skipped — every event was already validated on the
        way in."""
        tid_names, tix, tgt, locs = self.tid_names, self.tix, self.tgt, self._locs
        others = self._others
        names = self._names_by_code()
        events = [others[eid] if code == CODE_OTHER else
                  _new_event(eid, tid_names[tix[eid]], _KIND_BY_CODE[code],
                             names[code][tgt[eid]], locs[eid])
                  for eid, code in enumerate(self.codes)]
        trace = Trace(events, validate=False)
        trace.provenance = dict(self.provenance)
        return trace

    def _names_by_code(self) -> Tuple[List[Target], ...]:
        """The interning table ``tgt`` indexes, by event code."""
        return (self.var_names, self.var_names, self.lock_names,
                self.lock_names, self.tid_names, self.tid_names,
                self.vol_names, self.vol_names)
