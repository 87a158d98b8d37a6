"""Execution traces: container, validation, and builder.

A :class:`Trace` is a totally ordered list of :class:`~repro.core.events.Event`
objects (the paper's ``tr``, Section 2.1) together with precomputed
structure the analyses need:

* per-thread event lists and thread-local times (for vector clocks);
* acquire/release matching — the paper's ``A(r)`` and ``R(a)`` functions;
* for every event, the acquires of the critical sections enclosing it —
  the basis of ``CS(r)`` and of the lock-semantics reasoning in
  VindicateRace.

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
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.events import (CODE_ACQUIRE, CODE_BY_KIND_ID, CODE_JOIN,
                               CODE_RELEASE, CODE_VOLATILE_READ, CODE_WRITE,
                               Event, EventKind, Target, Tid, _new_event,
                               conflicts)
from repro.core.exceptions import MalformedTraceError

_eid_of = attrgetter("eid")


class Trace:
    """A validated, indexed execution trace.

    Construction makes one indexing pass over the events (see "Trace
    columns" in ``docs/ALGORITHMS.md``). Besides the per-thread tables
    and the acquire/release matching it builds the columns the epoch
    detectors and the witness checker read, parallel to ``events``:

    * ``codes`` — the kind code (``repro.core.events.CODE_*``);
    * ``tix`` — the executing thread's index into ``tid_names``;
    * ``tgt`` — the target's index into the table of its role: a
      variable for accesses, a lock for acquire/release, a thread for
      fork/join, a volatile for volatile accesses; -1 otherwise;
    * ``held`` — for accesses under locks, the held lock indices,
      outermost first (``held_locks`` as indices); None otherwise.

    ``thread_eids`` lists each thread index's eids in program order
    (empty for a fork/join target that executes nothing). The
    interning tables list targets in first-appearance order.
    ``tid_names`` starts with ``threads`` (executing threads, by first
    event) and ends with the fork/join targets that execute nothing, by
    first fork/join. Serve's
    :class:`~repro.serve.streaming.StreamingTrace` grows the same
    columns and tables one event at a time.

    Args:
        events: The events in observed order. Every event's ``eid`` must
            equal its position; use :meth:`from_events` to renumber
            arbitrary event sequences.
        validate: Whether to run structural validation (default True).
    """

    def __init__(self, events: Sequence[Event], validate: bool = True):
        self.events: List[Event] = list(events)
        #: Where this trace came from (generator seed and config,
        #: scheduler seed, source file, ...). Stamped by producers
        #: (``traces.gen``, ``runtime.scheduler``, ``traces.io``) and
        #: copied into :class:`~repro.vindicate.vindicator.VindicatorReport`
        #: so any measured run is reproducible from its own output.
        self.provenance: Dict[str, object] = {}
        events = self.events
        if any(map(ne, map(_eid_of, events), count())):
            for i, e in enumerate(events):
                if e.eid != i:
                    raise MalformedTraceError(
                        f"event at position {i} has eid {e.eid}; use "
                        "Trace.from_events to renumber",
                        event_index=i,
                    )
        n = len(events)
        #: thread-local 1-based time of each event (parallel to ``events``).
        self.local_time: List[int] = [0] * n
        #: per event: tuple of acquire eids of enclosing critical sections,
        #: outermost first (the executing thread's lock stack at the event).
        self.enclosing_acquires: List[Tuple[int, ...]] = [()] * n
        self.codes = bytearray(n)
        self.tix: List[int] = [0] * n
        self.tgt: List[int] = [-1] * n
        self.held: List[Optional[Tuple[int, ...]]] = [None] * n
        self.tid_names: List[Tid] = []
        self.tid_index: Dict[Tid, int] = {}
        self.thread_eids: List[List[int]] = []
        self._match_rel: Dict[int, int] = {}  # acquire eid -> release eid
        self._match_acq: Dict[int, int] = {}  # release eid -> acquire eid
        thread_ops, marks = self._index(validate)
        if validate:
            self._validate_threads(thread_ops, marks)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_events(cls, events: Iterable[Event], validate: bool = True) -> "Trace":
        """Build a trace from events, renumbering eids to positions."""
        renumbered = [_new_event(i, e.tid, e.kind, e.target, e.loc)
                      for i, e in enumerate(events)]
        return cls(renumbered, validate=validate)

    # ------------------------------------------------------------------
    # Indexing / validation
    # ------------------------------------------------------------------
    def _index(self, validate: bool) -> Tuple[List[int], List[int]]:
        """The one pass over the events: thread tables, lock matching
        and lock checks, and the columns. Returns the fork/join and the
        begin/end eids, whose checks wait for the whole pass."""
        events = self.events
        local, enclosing = self.local_time, self.enclosing_acquires
        codes, tix, tgt, held = self.codes, self.tix, self.tgt, self.held
        match_rel, match_acq = self._match_rel, self._match_acq
        tid_names, tid_index = self.tid_names, self.tid_index
        code_of = CODE_BY_KIND_ID
        var_ix: Dict[Target, int] = {}
        lock_ix: Dict[Target, int] = {}
        vol_ix: Dict[Target, int] = {}
        # Per thread index: its eids, its open acquires and their lock
        # indices, and the tuples of both (shared by the events between
        # two lock operations).
        thread_eids = self.thread_eids
        stacks: List[List[int]] = []
        lock_stacks: List[List[int]] = []
        enclosing_now: List[Tuple[int, ...]] = []
        held_now: List[Optional[Tuple[int, ...]]] = []
        holders: Dict[int, Tuple[int, int]] = {}  # lock -> (thread, acquire)
        thread_ops: List[int] = []
        marks: List[int] = []
        for e in events:
            eid = e.eid
            ti = tid_index.get(e.tid)
            if ti is None:
                ti = tid_index[e.tid] = len(tid_names)
                tid_names.append(e.tid)
                thread_eids.append([])
                stacks.append([])
                lock_stacks.append([])
                enclosing_now.append(())
                held_now.append(None)
            own = thread_eids[ti]
            own.append(eid)
            local[eid] = len(own)
            tix[eid] = ti
            code = codes[eid] = code_of[id(e.kind)]
            if code <= CODE_WRITE:
                vi = var_ix.get(e.target)
                if vi is None:
                    vi = var_ix[e.target] = len(var_ix)
                tgt[eid] = vi
                enclosing[eid] = enclosing_now[ti]
                held[eid] = held_now[ti]
            elif code <= CODE_RELEASE:
                li = lock_ix.get(e.target)
                if li is None:
                    li = lock_ix[e.target] = len(lock_ix)
                tgt[eid] = li
                stack, lock_stack = stacks[ti], lock_stacks[ti]
                if code == CODE_ACQUIRE:
                    if validate and li in holders:
                        holder = tid_names[holders[li][0]]
                        raise MalformedTraceError(
                            f"{e}: lock {e.target!r} already held by thread "
                            f"{holder!r} (locks are non-reentrant)",
                            event_index=eid,
                        )
                    holders[li] = (ti, eid)
                    stack.append(eid)
                    lock_stack.append(li)
                    enclosing[eid] = enclosing_now[ti] = tuple(stack)
                    held_now[ti] = tuple(lock_stack)
                    continue
                holder = holders.get(li)
                if holder is None or holder[0] != ti:
                    raise MalformedTraceError(
                        f"{e}: releases lock {e.target!r} not held by thread "
                        f"{e.tid!r}",
                        event_index=eid,
                    )
                acq_eid = holder[1]
                if validate and (not stack or stack[-1] != acq_eid):
                    raise MalformedTraceError(
                        f"{e}: releases lock {e.target!r} out of nesting order",
                        event_index=eid,
                    )
                enclosing[eid] = enclosing_now[ti]
                stack.pop()
                lock_stack.pop()
                enclosing_now[ti] = tuple(stack)
                held_now[ti] = tuple(lock_stack) or None
                del holders[li]
                match_rel[acq_eid] = eid
                match_acq[eid] = acq_eid
            else:
                enclosing[eid] = enclosing_now[ti]
                if code <= CODE_JOIN:
                    thread_ops.append(eid)
                elif code <= CODE_VOLATILE_READ:
                    xi = vol_ix.get(e.target)
                    if xi is None:
                        xi = vol_ix[e.target] = len(vol_ix)
                    tgt[eid] = xi
                else:
                    marks.append(eid)
        self._thread_events: Dict[Tid, List[int]] = dict(
            zip(tid_names, thread_eids))
        # Fork/join targets resolve once every executing thread has its
        # index, so threads that never run an event come last.
        for eid in thread_ops:
            target = events[eid].target
            ti = tid_index.get(target)
            if ti is None:
                ti = tid_index[target] = len(tid_names)
                tid_names.append(target)
                thread_eids.append([])
            tgt[eid] = ti
        self.var_names: List[Target] = list(var_ix)
        self.lock_names: List[Target] = list(lock_ix)
        self.vol_names: List[Target] = list(vol_ix)
        return thread_ops, marks

    def _validate_threads(self, thread_ops: List[int],
                          marks: List[int]) -> None:
        """The thread-structure checks, over the fork/join and begin/end
        events and the per-thread eid lists. The first error in trace
        order among double forks/joins, self-forks and accesses without
        a target wins, then forks, joins, and begin/end placement."""
        events = self.events
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
        for tid, fork_eid in forked.items():
            eids = self._thread_events.get(tid, [])
            if eids and eids[0] < fork_eid:
                raise MalformedTraceError(
                    f"thread {tid!r} executes event #{eids[0]} before its fork "
                    f"#{fork_eid}",
                    event_index=eids[0],
                )
        for tid, join_eid in joined.items():
            eids = self._thread_events.get(tid, [])
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
        for eid in marks:
            ti = tix[eid]
            if ti in misplaced:
                continue
            if events[eid].kind is EventKind.BEGIN:
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

    def critical_section(self, release: Event) -> List[Event]:
        """``CS(r)``: the events of the critical section ended by ``release``,
        including ``A(r)`` and ``r`` (same-thread events only)."""
        acq = self.acquire_of(release)
        return [
            self.events[eid]
            for eid in self._thread_events[release.tid]
            if acq.eid <= eid <= release.eid
        ]

    def held_locks(self, e: Event) -> Tuple[Target, ...]:
        """Locks held by ``thr(e)`` at ``e`` (targets of enclosing critical
        sections, outermost first). An acquire/release's own lock is included."""
        return tuple(self.events[a].target for a in self.enclosing_acquires[e.eid])

    def program_ordered(self, e1: Event, e2: Event) -> bool:
        """``e1 <_PO e2``: same thread, e1 earlier."""
        return e1.tid == e2.tid and e1.eid < e2.eid

    # ------------------------------------------------------------------
    # Collection protocol / misc
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __getitem__(self, i: int) -> Event:
        return self.events[i]

    @property
    def threads(self) -> List[Tid]:
        """Thread ids in order of first appearance."""
        return list(self._thread_events)

    def events_of(self, tid: Tid) -> List[Event]:
        """All events of thread ``tid``, in program order."""
        return [self.events[i] for i in self._thread_events.get(tid, [])]

    def eids_of(self, tid: Tid) -> Sequence[int]:
        """The event ids of thread ``tid``, in program order, without
        copying (read-only)."""
        return self._thread_events.get(tid, ())

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
        return f"Trace({len(self.events)} events, {len(self._thread_events)} threads)"


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
