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

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.events import Event, EventKind, Target, Tid, conflicts
from repro.core.exceptions import MalformedTraceError


class Trace:
    """A validated, indexed execution trace.

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
        for i, e in enumerate(self.events):
            if e.eid != i:
                raise MalformedTraceError(
                    f"event at position {i} has eid {e.eid}; use Trace.from_events "
                    "to renumber",
                    event_index=i,
                )
        self._thread_events: Dict[Tid, List[int]] = {}
        #: thread-local 1-based time of each event (parallel to ``events``).
        self.local_time: List[int] = [0] * len(self.events)
        for e in self.events:
            lst = self._thread_events.setdefault(e.tid, [])
            lst.append(e.eid)
            self.local_time[e.eid] = len(lst)

        self._match_rel: Dict[int, int] = {}  # acquire eid -> release eid
        self._match_acq: Dict[int, int] = {}  # release eid -> acquire eid
        #: per event: tuple of acquire eids of enclosing critical sections,
        #: outermost first (the executing thread's lock stack at the event).
        self.enclosing_acquires: List[Tuple[int, ...]] = [()] * len(self.events)
        self._index_locks(validate)
        if validate:
            self._validate_threads()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_events(cls, events: Iterable[Event], validate: bool = True) -> "Trace":
        """Build a trace from events, renumbering eids to positions."""
        renumbered = [
            Event(i, e.tid, e.kind, e.target, e.loc) for i, e in enumerate(events)
        ]
        return cls(renumbered, validate=validate)

    # ------------------------------------------------------------------
    # Indexing / validation
    # ------------------------------------------------------------------
    def _index_locks(self, validate: bool) -> None:
        lock_holder: Dict[Target, Tuple[Tid, int]] = {}  # lock -> (tid, acq eid)
        stacks: Dict[Tid, List[int]] = {}  # tid -> open acquire eids
        for e in self.events:
            stack = stacks.setdefault(e.tid, [])
            if e.kind is EventKind.ACQUIRE:
                if validate and e.target in lock_holder:
                    holder, _ = lock_holder[e.target]
                    raise MalformedTraceError(
                        f"{e}: lock {e.target!r} already held by thread {holder!r} "
                        "(locks are non-reentrant)",
                        event_index=e.eid,
                    )
                lock_holder[e.target] = (e.tid, e.eid)
                stack.append(e.eid)
                self.enclosing_acquires[e.eid] = tuple(stack)
            elif e.kind is EventKind.RELEASE:
                holder = lock_holder.get(e.target)
                if holder is None or holder[0] != e.tid:
                    raise MalformedTraceError(
                        f"{e}: releases lock {e.target!r} not held by thread {e.tid!r}",
                        event_index=e.eid,
                    )
                acq_eid = holder[1]
                if validate and (not stack or stack[-1] != acq_eid):
                    raise MalformedTraceError(
                        f"{e}: releases lock {e.target!r} out of nesting order",
                        event_index=e.eid,
                    )
                self.enclosing_acquires[e.eid] = tuple(stack)
                stack.pop()
                del lock_holder[e.target]
                self._match_rel[acq_eid] = e.eid
                self._match_acq[e.eid] = acq_eid
            else:
                self.enclosing_acquires[e.eid] = tuple(stack)

    def _validate_threads(self) -> None:
        forked: Dict[Tid, int] = {}
        joined: Dict[Tid, int] = {}
        for e in self.events:
            if e.kind is EventKind.FORK:
                if e.target == e.tid:
                    raise MalformedTraceError(
                        f"{e}: thread forks itself", event_index=e.eid
                    )
                if e.target in forked:
                    raise MalformedTraceError(
                        f"{e}: thread {e.target!r} forked twice", event_index=e.eid
                    )
                forked[e.target] = e.eid
            elif e.kind is EventKind.JOIN:
                if e.target in joined:
                    raise MalformedTraceError(
                        f"{e}: thread {e.target!r} joined twice", event_index=e.eid
                    )
                joined[e.target] = e.eid
            elif e.kind in (EventKind.READ, EventKind.WRITE, EventKind.VOLATILE_READ,
                            EventKind.VOLATILE_WRITE):
                if e.target is None:
                    raise MalformedTraceError(
                        f"{e}: access without a target", event_index=e.eid
                    )
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
        for tid, eids in self._thread_events.items():
            for pos, eid in enumerate(eids):
                kind = self.events[eid].kind
                if kind is EventKind.BEGIN and pos != 0:
                    raise MalformedTraceError(
                        f"{self.events[eid]}: begin is not thread's first event",
                        event_index=eid,
                    )
                if kind is EventKind.END and pos != len(eids) - 1:
                    raise MalformedTraceError(
                        f"{self.events[eid]}: end is not thread's last event",
                        event_index=eid,
                    )

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
        return {e.target for e in self.events if e.is_access}

    def locks(self) -> Set[Target]:
        """The set of locks acquired in the trace."""
        return {e.target for e in self.events if e.kind is EventKind.ACQUIRE}

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
