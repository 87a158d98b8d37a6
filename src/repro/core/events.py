"""Event model for execution traces.

An execution trace is a totally ordered list of events (Section 2.1 of the
paper). Each event is one of:

* ``rd(x)`` / ``wr(x)`` — read / write of a shared variable ``x``;
* ``acq(m)`` / ``rel(m)`` — acquire / release of a lock ``m``;
* ``fork(u)`` / ``join(u)`` — thread creation / join, which induce direct
  ordering edges in every relation the library computes;
* ``begin`` / ``end`` — the first / last event of a thread (optional);
* ``vwr(v)`` / ``vrd(v)`` — volatile (synchronisation) accesses, which
  induce write-to-read ordering edges and are never race candidates.

Events carry an optional source ``loc`` string used to aggregate dynamic
races into *statically distinct* races, mirroring the paper's
class/method/line identifiers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Hashable, Optional, Tuple

#: Type alias for thread identifiers.
Tid = Hashable
#: Type alias for variable / lock / volatile identifiers.
Target = Hashable


class EventKind(enum.Enum):
    """The kind of a trace event."""

    READ = "rd"
    WRITE = "wr"
    ACQUIRE = "acq"
    RELEASE = "rel"
    FORK = "fork"
    JOIN = "join"
    BEGIN = "begin"
    END = "end"
    VOLATILE_WRITE = "vwr"
    VOLATILE_READ = "vrd"

    @property
    def is_access(self) -> bool:
        """True for plain (non-volatile) reads and writes."""
        return self in (EventKind.READ, EventKind.WRITE)

    @property
    def is_read(self) -> bool:
        return self is EventKind.READ

    @property
    def is_write(self) -> bool:
        return self is EventKind.WRITE

    @property
    def is_lock_op(self) -> bool:
        return self in (EventKind.ACQUIRE, EventKind.RELEASE)

    @property
    def is_volatile(self) -> bool:
        return self in (EventKind.VOLATILE_WRITE, EventKind.VOLATILE_READ)

    @property
    def is_thread_op(self) -> bool:
        return self in (EventKind.FORK, EventKind.JOIN, EventKind.BEGIN, EventKind.END)


@dataclass(frozen=True)
class Event:
    """A single event in an execution trace.

    Attributes:
        eid: The event's position in the observed total order ``<_tr``.
            Unique within a trace; smaller means earlier.
        tid: Identifier of the thread that executed the event.
        kind: What the event does (:class:`EventKind`).
        target: The operand — a variable for accesses, a lock for
            acquire/release, a thread id for fork/join, a volatile
            variable for volatile accesses, and ``None`` for begin/end.
        loc: Optional static source location (used for static race
            de-duplication); ``None`` when unknown.
    """

    eid: int
    tid: Tid
    kind: EventKind
    target: Optional[Target] = None
    loc: Optional[str] = field(default=None, compare=False)

    def __str__(self) -> str:
        if self.target is None:
            return f"{self.kind.value}()@T{self.tid}#{self.eid}"
        return f"{self.kind.value}({self.target})@T{self.tid}#{self.eid}"

    __repr__ = __str__

    # ------------------------------------------------------------------
    # Convenience predicates, mirroring the paper's notation.
    # ------------------------------------------------------------------
    @property
    def is_access(self) -> bool:
        return self.kind.is_access

    @property
    def is_read(self) -> bool:
        return self.kind.is_read

    @property
    def is_write(self) -> bool:
        return self.kind.is_write

    @property
    def is_acquire(self) -> bool:
        return self.kind is EventKind.ACQUIRE

    @property
    def is_release(self) -> bool:
        return self.kind is EventKind.RELEASE


_new = object.__new__
_set = object.__setattr__


def _new_event(eid: int, tid: Tid, kind: EventKind, target: Optional[Target],
               loc: Optional[str]) -> Event:
    """``Event(eid, tid, kind, target, loc)`` without the call through the
    generated frozen ``__init__``: the same five attribute stores, so the
    result is an ordinary, equal, hash-equal and picklable :class:`Event`.
    For the bulk constructors (the trace parser, renumbering, unpacking)."""
    e = _new(Event)
    _set(e, "eid", eid)
    _set(e, "tid", tid)
    _set(e, "kind", kind)
    _set(e, "target", target)
    _set(e, "loc", loc)
    return e


# Compact kind codes, the ``Trace.codes`` column. Ordered so range checks
# dispatch fast: accesses are ``<= CODE_WRITE``, lock operations
# ``<= CODE_RELEASE``, thread operations ``<= CODE_JOIN``, volatiles
# ``<= CODE_VOLATILE_READ``; begin and end come last.
(CODE_READ, CODE_WRITE, CODE_ACQUIRE, CODE_RELEASE, CODE_FORK, CODE_JOIN,
 CODE_VOLATILE_WRITE, CODE_VOLATILE_READ, CODE_BEGIN, CODE_END) = range(10)

#: The kind of each code (index == code).
KIND_BY_CODE: Tuple[EventKind, ...] = (
    EventKind.READ, EventKind.WRITE, EventKind.ACQUIRE, EventKind.RELEASE,
    EventKind.FORK, EventKind.JOIN, EventKind.VOLATILE_WRITE,
    EventKind.VOLATILE_READ, EventKind.BEGIN, EventKind.END)

#: Kind code by ``id()`` of the (immortal, module-level) enum member:
#: enum's ``__hash__`` is a Python-level call, ``id()`` hashing is
#: C-speed, and this map is hit once per event while indexing a trace.
CODE_BY_KIND_ID: Dict[int, int] = {
    id(kind): code for code, kind in enumerate(KIND_BY_CODE)}


def conflicts(e1: Event, e2: Event) -> bool:
    """Return True if ``e1 ≍ e2`` (the paper's conflicting-events predicate).

    Two events conflict when they are plain accesses to the same variable
    by *different* threads and at least one is a write. Volatile accesses
    never conflict: they are synchronisation, not data.
    """
    if not (e1.is_access and e2.is_access):
        return False
    if e1.tid == e2.tid or e1.target != e2.target:
        return False
    return e1.is_write or e2.is_write
