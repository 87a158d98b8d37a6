"""Execution traces: container, validation, and builder.

A :class:`Trace` is a totally ordered sequence of events (the paper's
``tr``, Section 2.1), held as columns (see "Trace columns" in
``docs/ALGORITHMS.md``), together with precomputed structure the
analyses need:

* per-thread event lists and thread-local times (for vector clocks);
* acquire/release matching — the paper's ``A(r)`` and ``R(a)`` functions;
* for every event, the acquires of the critical sections enclosing it —
  the basis of ``CS(r)`` and of the lock-semantics reasoning in
  VindicateRace.

``trace.events`` (:class:`EventView`) builds an
:class:`~repro.core.events.Event` from the columns each time one is
read; a trace keeps none.

Traces are validated on construction (:class:`MalformedTraceError` on
structural violations) so downstream algorithms can assume
well-formedness. :class:`TraceBuilder` offers a chainable DSL used by the
litmus tests and examples::

    tr = (TraceBuilder()
          .wr(1, "x").acq(1, "m").wr(1, "z").rel(1, "m")
          .acq(2, "m").rd(2, "y").rel(2, "m").rd(2, "x")
          .build())
"""

from __future__ import annotations

from itertools import count
from operator import attrgetter, ne
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple, Union, overload)

from repro.core.events import (CODE_ACQUIRE, CODE_BEGIN, CODE_BY_KIND_ID,
                               CODE_END, CODE_FORK, CODE_JOIN, CODE_RELEASE,
                               CODE_VOLATILE_READ, CODE_WRITE, KIND_BY_CODE,
                               Event, EventKind, Target, Tid, _new_event,
                               conflicts)
from repro.core.exceptions import MalformedTraceError

_eid_of = attrgetter("eid")

#: One event as the indexing step takes it: ``(tid, code, target, loc)``,
#: its eid being its position.
Row = Tuple[Tid, int, Optional[Target], Optional[str]]


def _positions(codes: bytearray, code: int) -> List[int]:
    """The eids whose kind code is ``code``, in order."""
    found: List[int] = []
    at = codes.find(code)
    while at >= 0:
        found.append(at)
        at = codes.find(code, at + 1)
    return found


def _rows_of(events: Iterable[Event]) -> Iterator[Row]:
    """The indexing step's rows for ``events`` (their eids ignored)."""
    code_of = CODE_BY_KIND_ID
    return ((e.tid, code_of[id(e.kind)], e.target, e.loc) for e in events)


def _describe(eid: int, tid: Tid, code: int, target: Optional[Target]) -> str:
    """How an error names the event (``Event.__str__``)."""
    return str(_new_event(eid, tid, KIND_BY_CODE[code], target, None))


class EventView(Sequence[Event]):
    """The events of a trace, read-only, built from its columns on read.

    Indexing and iteration return a fresh :class:`Event` equal to the
    one the trace was built from (location included); slicing returns a
    list. :meth:`fields` reads one event's fields without building it.
    A growing trace's view grows with it.
    """

    __slots__ = ("_codes", "_tix", "_tgt", "_loc", "_tids", "_markers",
                 "_names")

    def __init__(self, trace: "Trace") -> None:
        self._codes, self._tix = trace.codes, trace.tix
        self._tgt, self._loc = trace.tgt, trace.loc
        self._tids, self._markers = trace.tid_names, trace.marker_targets
        #: Per kind code, the table its target indexes (None: no target).
        self._names: Tuple[Optional[List[Target]], ...] = (
            trace.var_names, trace.var_names, trace.lock_names,
            trace.lock_names, trace.tid_names, trace.tid_names,
            trace.vol_names, trace.vol_names, None, None)

    def __len__(self) -> int:
        return len(self._codes)

    @overload
    def __getitem__(self, i: int) -> Event: ...

    @overload
    def __getitem__(self, i: slice) -> List[Event]: ...

    def __getitem__(self, i: Union[int, slice]) -> Union[Event, List[Event]]:
        if isinstance(i, slice):
            return [self[eid] for eid in range(*i.indices(len(self._codes)))]
        tid, kind, target, loc = self.fields(i)
        return _new_event(i if i >= 0 else i + len(self._codes), tid, kind,
                          target, loc)

    def fields(self, eid: int) -> Tuple[Tid, EventKind, Optional[Target],
                                        Optional[str]]:
        """Event ``eid``'s ``(tid, kind, target, loc)``."""
        code = self._codes[eid]
        names = self._names[code]
        return (self._tids[self._tix[eid]], KIND_BY_CODE[code],
                self._markers.get(eid) if names is None
                else names[self._tgt[eid]],
                self._loc[eid])

    def __iter__(self) -> Iterator[Event]:
        return (self[eid] for eid in range(len(self._codes)))

    def __repr__(self) -> str:
        return f"EventView({len(self)} events)"


class Trace:
    """A validated, indexed execution trace.

    The trace is its columns, one entry per event in observed order,
    built by one indexing step per event (:meth:`_indexer`; see "Trace
    columns" in ``docs/ALGORITHMS.md``):

    * ``codes`` — the kind code (``repro.core.events.CODE_*``);
    * ``tix`` — the executing thread's index into ``tid_names``;
    * ``tgt`` — the target's index into the table of its role: a
      variable for accesses, a lock for acquire/release, a thread for
      fork/join, a volatile for volatile accesses; -1 otherwise;
    * ``loc`` — the source location, or None;
    * ``held`` — for accesses under locks, the held lock indices,
      outermost first (``held_locks`` as indices); None otherwise;
    * ``local_time`` and ``enclosing_acquires`` (below).

    ``events`` is an :class:`EventView` over them. ``thread_eids``
    lists each thread index's eids in program order (empty for a
    fork/join target that executes nothing). The interning tables list
    targets in first-appearance order; a thread first appears as an
    event's executor or as a fork/join target, whichever comes first.
    The text parser fills a trace straight from its lines
    (:meth:`from_rows`); serve's
    :class:`~repro.serve.streaming.StreamingTrace` is a ``Trace`` grown
    by the same step one event at a time.

    Args:
        events: The events in observed order. Every event's ``eid`` must
            equal its position; use :meth:`from_events` to renumber
            arbitrary event sequences.
        validate: Whether to run structural validation (default True).
    """

    def __init__(self, events: Iterable[Event], validate: bool = True):
        self._start()
        if not isinstance(events, Sequence):
            events = list(events)
        if any(map(ne, map(_eid_of, events), count())):
            for i, e in enumerate(events):
                if e.eid != i:
                    raise MalformedTraceError(
                        f"event at position {i} has eid {e.eid}; use "
                        "Trace.from_events to renumber",
                        event_index=i,
                    )
        self._fill(_rows_of(events), validate)

    def _start(self) -> None:
        """The empty columns and tables."""
        #: Where this trace came from (generator seed and config,
        #: scheduler seed, source file, ...). Stamped by producers
        #: (``traces.gen``, ``runtime.scheduler``, ``traces.io``) and
        #: copied into :class:`~repro.vindicate.vindicator.VindicatorReport`
        #: so any measured run is reproducible from its own output.
        self.provenance: Dict[str, object] = {}
        #: thread-local 1-based time of each event.
        self.local_time: List[int] = []
        #: per event: tuple of acquire eids of enclosing critical sections,
        #: outermost first (the executing thread's lock stack at the event).
        self.enclosing_acquires: List[Tuple[int, ...]] = []
        self.codes = bytearray()
        self.tix: List[int] = []
        self.tgt: List[int] = []
        self.loc: List[Optional[str]] = []
        self.held: List[Optional[Tuple[int, ...]]] = []
        self.tid_names: List[Tid] = []
        self.tid_index: Dict[Tid, int] = {}
        self.var_names: List[Target] = []
        self.lock_names: List[Target] = []
        self.vol_names: List[Target] = []
        #: The target of each begin or end event given one (only an
        #: ``Event`` can carry it; the text format has no such field).
        self.marker_targets: Dict[int, Target] = {}
        self.thread_eids: List[List[int]] = []
        self._match_rel: Dict[int, int] = {}  # acquire eid -> release eid
        self._match_acq: Dict[int, int] = {}  # release eid -> acquire eid
        self.events = EventView(self)

    def _fill(self, rows: Iterable[Row], validate: bool) -> None:
        self._indexer(validate)(rows)
        if validate:
            self._validate_threads()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, rows: Iterable[Row], validate: bool = True) -> "Trace":
        """Build a trace from ``(tid, code, target, loc)`` rows (see
        :data:`Row`), numbered by position: the text parser's and the
        unpacker's entry point, which build no :class:`Event`."""
        trace = cls.__new__(cls)
        trace._start()
        trace._fill(rows, validate)
        return trace

    @classmethod
    def from_events(cls, events: Iterable[Event], validate: bool = True) -> "Trace":
        """Build a trace from events, renumbering eids to positions."""
        return cls.from_rows(_rows_of(events), validate=validate)

    # ------------------------------------------------------------------
    # Indexing / validation
    # ------------------------------------------------------------------
    def _indexer(self, validate: bool) -> Callable[[Iterable[Row]], bool]:
        """The per-event indexing step over this trace's columns and
        tables, as a function that applies it to rows in order.

        The step checks the event's lock operation (an unheld release
        always; a double acquire and a release out of nesting order when
        ``validate``), then interns the event's thread and target and
        commits its columns, thread tables and lock matching. Every
        check runs before the first change, so an event it rejects
        leaves the trace as it was. An event's eid is its position,
        ``len(codes)``. The function returns whether an interning table
        grew.

        It has three callers: the constructor (rows of its events), the
        text parser (rows straight from the file's lines, through
        :meth:`from_rows`) and serve's stream (one accepted event at a
        time). Looping inside the function spares the batch passes a
        call per event."""
        local, enclosing = self.local_time, self.enclosing_acquires
        codes, tix, tgt, held = self.codes, self.tix, self.tgt, self.held
        match_rel, match_acq = self._match_rel, self._match_acq
        tid_names, tid_index = self.tid_names, self.tid_index
        thread_eids = self.thread_eids
        var_names, lock_names = self.var_names, self.lock_names
        vol_names, marker_targets = self.vol_names, self.marker_targets
        var_ix: Dict[Target, int] = {}
        lock_ix: Dict[Target, int] = {}
        vol_ix: Dict[Target, int] = {}
        # Per thread index: its open acquires and their lock indices,
        # and the tuples of both (shared by the events between two lock
        # operations).
        stacks: List[List[int]] = []
        lock_stacks: List[List[int]] = []
        enclosing_now: List[Tuple[int, ...]] = []
        held_now: List[Optional[Tuple[int, ...]]] = []
        holders: Dict[int, Tuple[int, int]] = {}  # lock -> (thread, acquire)
        add_local, add_enclosing = local.append, enclosing.append
        add_code, add_tix = codes.append, tix.append
        add_tgt, add_held, add_loc = tgt.append, held.append, self.loc.append

        def new_thread(tid: Tid) -> int:
            ti = tid_index[tid] = len(tid_names)
            tid_names.append(tid)
            thread_eids.append([])
            stacks.append([])
            lock_stacks.append([])
            enclosing_now.append(())
            held_now.append(None)
            return ti

        def index(rows: Iterable[Row]) -> bool:
            grew = False
            for eid, (tid, code, target, loc) in enumerate(rows, len(codes)):
                ti = tid_index.get(tid)
                if CODE_WRITE < code <= CODE_RELEASE:
                    li = lock_ix.get(target)
                    holder = None if li is None else holders.get(li)
                    if code == CODE_ACQUIRE:
                        if validate and holder is not None:
                            raise MalformedTraceError(
                                f"{_describe(eid, tid, code, target)}: lock "
                                f"{target!r} already held by thread "
                                f"{tid_names[holder[0]]!r} (locks are "
                                "non-reentrant)",
                                event_index=eid,
                            )
                    elif holder is None or holder[0] != ti:
                        raise MalformedTraceError(
                            f"{_describe(eid, tid, code, target)}: releases "
                            f"lock {target!r} not held by thread {tid!r}",
                            event_index=eid,
                        )
                    elif validate and stacks[holder[0]][-1] != holder[1]:
                        raise MalformedTraceError(
                            f"{_describe(eid, tid, code, target)}: releases "
                            f"lock {target!r} out of nesting order",
                            event_index=eid,
                        )
                # Every check passed: commit.
                if ti is None:
                    ti = new_thread(tid)
                    grew = True
                own = thread_eids[ti]
                own.append(eid)
                add_local(len(own))
                add_tix(ti)
                add_code(code)
                add_loc(loc)
                if code <= CODE_WRITE:
                    xi = var_ix.get(target)
                    if xi is None:
                        xi = var_ix[target] = len(var_names)
                        var_names.append(target)
                        grew = True
                    add_tgt(xi)
                    add_enclosing(enclosing_now[ti])
                    add_held(held_now[ti])
                    continue
                add_held(None)
                if code <= CODE_RELEASE:
                    if li is None:
                        li = lock_ix[target] = len(lock_names)
                        lock_names.append(target)
                        grew = True
                    add_tgt(li)
                    stack, lock_stack = stacks[ti], lock_stacks[ti]
                    if code == CODE_ACQUIRE:
                        holders[li] = (ti, eid)
                        stack.append(eid)
                        lock_stack.append(li)
                        enclosing_now[ti] = tuple(stack)
                        held_now[ti] = tuple(lock_stack)
                        add_enclosing(enclosing_now[ti])
                        continue
                    add_enclosing(enclosing_now[ti])
                    stack.pop()
                    lock_stack.pop()
                    enclosing_now[ti] = tuple(stack)
                    held_now[ti] = tuple(lock_stack) or None
                    acquire = holders.pop(li)[1]
                    match_rel[acquire] = eid
                    match_acq[eid] = acquire
                    continue
                add_enclosing(enclosing_now[ti])
                if code <= CODE_JOIN:
                    xi = tid_index.get(target)
                    if xi is None:
                        xi = new_thread(target)
                        grew = True
                elif code <= CODE_VOLATILE_READ:
                    xi = vol_ix.get(target)
                    if xi is None:
                        xi = vol_ix[target] = len(vol_names)
                        vol_names.append(target)
                        grew = True
                else:
                    xi = -1
                    if target is not None:
                        marker_targets[eid] = target
                add_tgt(xi)
            return grew

        return index

    def _validate_threads(self) -> None:
        """The thread-structure checks, over the fork/join and begin/end
        events and the per-thread eid lists. The first error in trace
        order among double forks/joins, self-forks and accesses without
        a target wins, then forks, joins, and begin/end placement."""
        events, codes = self.events, self.codes
        thread_ops = sorted(_positions(codes, CODE_FORK)
                            + _positions(codes, CODE_JOIN))
        forked: Dict[Tid, int] = {}
        joined: Dict[Tid, int] = {}
        first: Optional[MalformedTraceError] = None
        for eid in thread_ops:
            e = events[eid]
            if e.kind is EventKind.FORK:
                if e.target == e.tid:
                    first = MalformedTraceError(
                        f"{e}: thread forks itself", event_index=eid)
                    break
                if e.target in forked:
                    first = MalformedTraceError(
                        f"{e}: thread {e.target!r} forked twice",
                        event_index=eid)
                    break
                forked[e.target] = eid
            else:
                if e.target in joined:
                    first = MalformedTraceError(
                        f"{e}: thread {e.target!r} joined twice",
                        event_index=eid)
                    break
                joined[e.target] = eid
        if None in self.var_names or None in self.vol_names:
            e = next(e for e in events if e.target is None and (
                e.kind.is_access or e.kind.is_volatile))
            if first is None or e.eid < first.event_index:
                first = MalformedTraceError(
                    f"{e}: access without a target", event_index=e.eid)
        if first is not None:
            raise first
        thread_eids, tid_index = self.thread_eids, self.tid_index
        for tid, fork_eid in forked.items():
            eids = thread_eids[tid_index[tid]]
            if eids and eids[0] < fork_eid:
                raise MalformedTraceError(
                    f"thread {tid!r} executes event #{eids[0]} before its fork "
                    f"#{fork_eid}",
                    event_index=eids[0],
                )
        for tid, join_eid in joined.items():
            eids = thread_eids[tid_index[tid]]
            if eids and eids[-1] > join_eid:
                raise MalformedTraceError(
                    f"thread {tid!r} executes event #{eids[-1]} after its join "
                    f"#{join_eid}",
                    event_index=eids[-1],
                )
        # Per thread, in first-appearance order, its first misplaced
        # begin or end.
        misplaced: Dict[int, Tuple[int, str]] = {}
        local, tix = self.local_time, self.tix
        counts = [len(eids) for eids in self.thread_eids]
        for eid in sorted(_positions(codes, CODE_BEGIN)
                          + _positions(codes, CODE_END)):
            ti = tix[eid]
            if ti in misplaced:
                continue
            if codes[eid] == CODE_BEGIN:
                if local[eid] != 1:
                    misplaced[ti] = (eid, "begin is not thread's first event")
            elif local[eid] != counts[ti]:
                misplaced[ti] = (eid, "end is not thread's last event")
        if misplaced:
            eid, problem = misplaced[min(misplaced)]
            raise MalformedTraceError(f"{events[eid]}: {problem}",
                                      event_index=eid)

    # ------------------------------------------------------------------
    # Paper notation
    # ------------------------------------------------------------------
    def acquire_of(self, release: Event) -> Event:
        """``A(r)``: the acquire starting the critical section ended by ``release``."""
        return self.events[self._match_acq[release.eid]]

    def release_of(self, acquire: Event) -> Optional[Event]:
        """``R(a)``: the release ending the critical section started by
        ``acquire``, or None if the critical section never closes in the trace."""
        eid = self._match_rel.get(acquire.eid)
        return None if eid is None else self.events[eid]

    def acquire_eid(self, release: int) -> int:
        """:meth:`acquire_of` by eid."""
        return self._match_acq[release]

    def release_eid(self, acquire: int) -> Optional[int]:
        """:meth:`release_of` by eid (None for a section left open)."""
        return self._match_rel.get(acquire)

    def critical_section(self, release: Event) -> List[Event]:
        """``CS(r)``: the events of the critical section ended by ``release``,
        including ``A(r)`` and ``r`` (same-thread events only)."""
        acquire = self._match_acq[release.eid]
        return [
            self.events[eid]
            for eid in self.thread_eids[self.tix[release.eid]]
            if acquire <= eid <= release.eid
        ]

    def held_locks(self, e: Event) -> Tuple[Target, ...]:
        """Locks held by ``thr(e)`` at ``e`` (targets of enclosing critical
        sections, outermost first). An acquire/release's own lock is included."""
        locks, tgt = self.lock_names, self.tgt
        return tuple(locks[tgt[a]] for a in self.enclosing_acquires[e.eid])

    def program_ordered(self, e1: Event, e2: Event) -> bool:
        """``e1 <_PO e2``: same thread, e1 earlier."""
        return e1.tid == e2.tid and e1.eid < e2.eid

    # ------------------------------------------------------------------
    # Collection protocol / misc
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __getitem__(self, i: int) -> Event:
        return self.events[i]

    @property
    def threads(self) -> List[Tid]:
        """The executing threads' ids, in order of their first event
        (which need not be ``tid_names``' order: a fork/join target is
        interned before it runs, or without running at all)."""
        names = self.tid_names
        return [names[ti] for _, ti in sorted(
            (eids[0], ti) for ti, eids in enumerate(self.thread_eids) if eids)]

    def events_of(self, tid: Tid) -> List[Event]:
        """All events of thread ``tid``, in program order."""
        return [self.events[i] for i in self.eids_of(tid)]

    def eids_of(self, tid: Tid) -> Sequence[int]:
        """The event ids of thread ``tid``, in program order, without
        copying (read-only)."""
        ti = self.tid_index.get(tid)
        return () if ti is None else self.thread_eids[ti]

    def accesses(self) -> Iterator[Event]:
        """Iterate over the plain read/write events."""
        return (e for e in self.events if e.is_access)

    def variables(self) -> Set[Target]:
        """The set of shared variables accessed in the trace."""
        return set(self.var_names)

    def locks(self) -> Set[Target]:
        """The set of locks acquired in the trace (every released lock
        was acquired first)."""
        return set(self.lock_names)

    def conflicting_pairs(self) -> Iterator[Tuple[Event, Event]]:
        """Iterate over all conflicting access pairs ``(e1, e2)`` with
        ``e1 <_tr e2``. Quadratic per variable; intended for small traces
        (tests, the brute-force oracle)."""
        by_var: Dict[Target, List[Event]] = {}
        for e in self.events:
            if e.is_access:
                by_var.setdefault(e.target, []).append(e)
        for var_events in by_var.values():
            for i, e1 in enumerate(var_events):
                for e2 in var_events[i + 1:]:
                    if conflicts(e1, e2):
                        yield e1, e2

    def __repr__(self) -> str:
        return f"Trace({len(self)} events, {len(self.threads)} threads)"


class TraceBuilder:
    """Chainable builder for traces, used heavily in tests and examples.

    Every op method returns ``self``. Events are numbered in call order.
    """

    def __init__(self) -> None:
        self._events: List[Event] = []

    def _add(self, tid: Tid, kind: EventKind, target: Optional[Target],
             loc: Optional[str]) -> "TraceBuilder":
        self._events.append(Event(len(self._events), tid, kind, target, loc))
        return self

    def rd(self, tid: Tid, var: Target, loc: Optional[str] = None) -> "TraceBuilder":
        """Append ``rd(var)`` by ``tid``."""
        return self._add(tid, EventKind.READ, var, loc)

    def wr(self, tid: Tid, var: Target, loc: Optional[str] = None) -> "TraceBuilder":
        """Append ``wr(var)`` by ``tid``."""
        return self._add(tid, EventKind.WRITE, var, loc)

    def acq(self, tid: Tid, lock: Target, loc: Optional[str] = None) -> "TraceBuilder":
        """Append ``acq(lock)`` by ``tid``."""
        return self._add(tid, EventKind.ACQUIRE, lock, loc)

    def rel(self, tid: Tid, lock: Target, loc: Optional[str] = None) -> "TraceBuilder":
        """Append ``rel(lock)`` by ``tid``."""
        return self._add(tid, EventKind.RELEASE, lock, loc)

    def fork(self, tid: Tid, child: Tid, loc: Optional[str] = None) -> "TraceBuilder":
        """Append ``fork(child)`` by ``tid``."""
        return self._add(tid, EventKind.FORK, child, loc)

    def join(self, tid: Tid, child: Tid, loc: Optional[str] = None) -> "TraceBuilder":
        """Append ``join(child)`` by ``tid``."""
        return self._add(tid, EventKind.JOIN, child, loc)

    def begin(self, tid: Tid) -> "TraceBuilder":
        """Append the thread's begin marker."""
        return self._add(tid, EventKind.BEGIN, None, None)

    def end(self, tid: Tid) -> "TraceBuilder":
        """Append the thread's end marker."""
        return self._add(tid, EventKind.END, None, None)

    def vwr(self, tid: Tid, var: Target, loc: Optional[str] = None) -> "TraceBuilder":
        """Append a volatile write."""
        return self._add(tid, EventKind.VOLATILE_WRITE, var, loc)

    def vrd(self, tid: Tid, var: Target, loc: Optional[str] = None) -> "TraceBuilder":
        """Append a volatile read."""
        return self._add(tid, EventKind.VOLATILE_READ, var, loc)

    def sync(self, tid: Tid, lock: Target) -> "TraceBuilder":
        """Append the paper's ``sync(o)`` idiom (Figure 3):
        ``acq(o); rd(oVar); wr(oVar); rel(o)``."""
        var = f"{lock}Var"
        return (self.acq(tid, lock).rd(tid, var).wr(tid, var).rel(tid, lock))

    def events(self) -> List[Event]:
        """The raw events built so far, without constructing a
        :class:`Trace` — even ``validate=False`` construction refuses
        unmatched releases, but the linter must accept them."""
        return list(self._events)

    def build(self, validate: bool = True) -> Trace:
        """Finish and validate the trace."""
        return Trace(self._events, validate=validate)
