"""Checker for correctly reordered traces (Definition 2.1).

VindicateRace only reports a predictable race after constructing a
witness — a correctly reordered trace in which the racing events are
consecutive. This module implements the paper's optional "sanity check"
(Section 6.1) as a hard guarantee: every witness the library reports has
passed this checker, so soundness does not rest on the constructor's
correctness.

The checker enforces, in this order of precedence:

* **membership** — every event belongs to the original trace, once;
* the **PO rule** — program-ordered events keep their order, and a
  thread's included events form a prefix of its original sequence;
* the **CA rule** — conflicting accesses keep their trace order (this
  includes the witness's racing pair itself: Definition 2.2 makes the
  pair consecutive *in trace order*, first access first), and an
  included access brings all its conflicting predecessors;
* the **LS rule** — critical sections on one lock never overlap;
* the **hard-edge rules** (model extension for fork/join/volatiles,
  which the paper's formal model omits but its implementation handles):
  a fork precedes all included child events, a join requires the whole
  child, and conflicting volatile accesses keep their order.

**Cost.** The rules are checked against a :class:`TraceIndex` built
from the original trace alone, once per trace, and cached weakly by
trace identity. One check then costs O(|witness|) plus the immediate
conflict predecessors of its included accesses; it never scans the
original trace. Because PO is checked first, the included events of
each thread form a prefix, so an included access only needs its
*immediate* conflict predecessors checked — its previous write and, for
a write, the reads since that write; the earlier ones follow by
induction (``docs/ALGORITHMS.md``, "Witness checker").

**Independence.** The checker shares no code with the constructor: it
imports nothing from ``construct``, ``add_constraints`` or
``repro.graph`` (``tests/test_verify_cost.py`` enforces this).
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Sequence

from repro import obs
from repro.core.events import Event, EventKind, Target, Tid, conflicts
from repro.core.exceptions import MalformedReorderingError
from repro.core.trace import Trace

_READ = EventKind.READ
_WRITE = EventKind.WRITE
_VOLATILE_READ = EventKind.VOLATILE_READ
_VOLATILE_WRITE = EventKind.VOLATILE_WRITE
_JOIN = EventKind.JOIN


class TraceIndex:
    """Immutable per-trace structure the checker reads instead of the trace.

    Built in one pass over ``trace.events``; every field is O(n) ints.
    The per-thread eid lists and ``local_time`` it also relies on are
    already on :class:`Trace`.

    Attributes:
        size: Number of events indexed (a changed length forces a rebuild).
        fork_of: Child thread id -> eid of the fork that creates it.
        prev_write: Per event, the eid of the previous plain write to the
            same variable, or -1 (also -1 for non-accesses).
        reads_before: Plain write eid -> eids of the reads of its variable
            since the previous write (omitted when there are none).
    """

    __slots__ = ("size", "fork_of", "prev_write", "reads_before")

    def __init__(self, trace: Trace) -> None:
        events = trace.events
        self.size = len(events)
        self.fork_of: Dict[Tid, int] = {}
        self.prev_write: List[int] = [-1] * self.size
        self.reads_before: Dict[int, List[int]] = {}
        last_write: Dict[Target, int] = {}
        pending_reads: Dict[Target, List[int]] = {}
        for e in events:
            eid, kind = e.eid, e.kind
            if kind is _READ:
                self.prev_write[eid] = last_write.get(e.target, -1)
                reads = pending_reads.get(e.target)
                if reads is None:
                    reads = pending_reads[e.target] = []
                reads.append(eid)
            elif kind is _WRITE:
                self.prev_write[eid] = last_write.get(e.target, -1)
                reads = pending_reads.pop(e.target, None)
                if reads is not None:
                    self.reads_before[eid] = reads
                last_write[e.target] = eid
            elif kind is EventKind.FORK:
                self.fork_of[e.target] = eid


_INDEXES: "weakref.WeakKeyDictionary[Trace, TraceIndex]" = \
    weakref.WeakKeyDictionary()


def _trace_index(trace: Trace) -> TraceIndex:
    """The cached :class:`TraceIndex` of ``trace``, built on first use.

    Two threads checking a fresh trace at once may both build it; the
    indexes are equal, so whichever is stored last is as good.
    """
    index = _INDEXES.get(trace)
    if index is None or index.size != len(trace):
        with obs.span("vindicate.check_witness.index") as span:
            index = TraceIndex(trace)
            span.annotate("events", index.size)
        _INDEXES[trace] = index
    return index


def check_correct_reordering(original: Trace, reordered: Sequence[Event]) -> None:
    """Raise :class:`MalformedReorderingError` unless ``reordered`` is a
    correct reordering of ``original`` per Definition 2.1 (plus the
    fork/join/volatile extensions)."""
    _check_reordering(original, reordered)


def check_witness(original: Trace, reordered: Sequence[Event],
                  first: Event, second: Event) -> None:
    """Check that ``reordered`` witnesses a predictable race between
    ``first`` and ``second`` (Definition 2.2): it is a correct reordering
    in which the two conflicting events execute consecutively."""
    position = _check_reordering(original, reordered)
    if not conflicts(first, second):
        raise MalformedReorderingError(
            f"{first} and {second} are not conflicting", rule="EVENTS")
    if first.eid not in position or second.eid not in position:
        raise MalformedReorderingError(
            "witness omits one of the racing events", rule="EVENTS")
    if position[second.eid] != position[first.eid] + 1:
        raise MalformedReorderingError(
            f"racing events are not consecutive: positions "
            f"{position[first.eid]} and {position[second.eid]}",
            rule="EVENTS")


def _check_reordering(original: Trace,
                      reordered: Sequence[Event]) -> Dict[int, int]:
    """Run every rule in precedence order; returns eid -> position."""
    index = _trace_index(original)
    position = _check_membership(original, reordered)
    prefix_len = _check_program_order(original, reordered)
    _check_conflicting_accesses(original, index, reordered, position)
    _check_lock_semantics(reordered)
    _check_thread_edges(original, index, reordered, position, prefix_len)
    return position


# ----------------------------------------------------------------------
# Individual rules
# ----------------------------------------------------------------------
def _check_membership(original: Trace,
                      reordered: Sequence[Event]) -> Dict[int, int]:
    events = original.events
    n = len(events)
    position: Dict[int, int] = {}
    for i, e in enumerate(reordered):
        eid = e.eid
        if not 0 <= eid < n or (events[eid] is not e and events[eid] != e):
            raise MalformedReorderingError(
                f"{e} is not an event of the original trace", rule="EVENTS")
        if eid in position:
            raise MalformedReorderingError(f"{e} appears twice", rule="EVENTS")
        position[eid] = i
    return position


def _check_program_order(original: Trace,
                         reordered: Sequence[Event]) -> Dict[Tid, int]:
    """The k-th event of a thread in the witness must be the thread's
    k-th event; returns each thread's included prefix length."""
    local_time = original.local_time
    prefix_len: Dict[Tid, int] = {}
    for e in reordered:
        k = prefix_len.get(e.tid, 0) + 1
        prefix_len[e.tid] = k
        if local_time[e.eid] != k:
            tid = e.tid
            got = [x for x in reordered if x.tid == tid]
            prefix = [original[i] for i in original.eids_of(tid)[:len(got)]]
            raise MalformedReorderingError(
                f"thread {tid!r}'s events are not a program-order prefix: "
                f"got {got}, expected prefix {prefix}",
                rule="PO")
    return prefix_len


def _check_conflicting_accesses(original: Trace, index: TraceIndex,
                                reordered: Sequence[Event],
                                position: Dict[int, int]) -> None:
    """Each included access's immediate conflict predecessors — its
    previous write, and for a write the reads since that write — must be
    included and placed before it.

    Runs after the PO check, so the included set is a per-thread prefix
    and same-thread predecessors are already included and ordered; a
    violation therefore always names a genuinely conflicting pair.
    Earlier predecessors follow by induction through program order or
    the chain of included writes.
    """
    events = original.events
    prev_write = index.prev_write
    reads_before = index.reads_before
    for here, e in enumerate(reordered):
        kind = e.kind
        if kind is not _READ and kind is not _WRITE:
            continue
        write = prev_write[e.eid]
        if write >= 0:
            _require_before(events[write], e, position, here)
        if kind is _WRITE:
            for read in reads_before.get(e.eid, ()):
                _require_before(events[read], e, position, here)


def _require_before(pred: Event, e: Event, position: Dict[int, int],
                    here: int) -> None:
    at = position.get(pred.eid)
    if at is None:
        raise MalformedReorderingError(
            f"{e} is included but its conflicting predecessor {pred} is not",
            rule="CA")
    if at > here:
        raise MalformedReorderingError(
            f"conflicting accesses {pred} and {e} were swapped", rule="CA")


def _check_lock_semantics(reordered: Sequence[Event]) -> None:
    held: Dict[Target, Tid] = {}
    for e in reordered:
        if e.kind is EventKind.ACQUIRE:
            if e.target in held:
                raise MalformedReorderingError(
                    f"{e} acquires lock held by thread {held[e.target]!r}",
                    rule="LS")
            held[e.target] = e.tid
        elif e.kind is EventKind.RELEASE:
            if held.get(e.target) != e.tid:
                raise MalformedReorderingError(
                    f"{e} releases a lock it does not hold", rule="LS")
            del held[e.target]


def _check_thread_edges(original: Trace, index: TraceIndex,
                        reordered: Sequence[Event],
                        position: Dict[int, int],
                        prefix_len: Dict[Tid, int]) -> None:
    events = original.events
    fork_of = index.fork_of
    volatiles: List[int] = []
    for here, e in enumerate(reordered):
        fork = fork_of.get(e.tid)
        if fork is not None:
            at = position.get(fork)
            if at is None or at > here:
                raise MalformedReorderingError(
                    f"{e} executes without (or before) its fork {events[fork]}",
                    rule="PO")
        kind = e.kind
        if kind is _JOIN:
            # PO made the child's included events a prefix in program
            # order, so the whole child precedes the join iff its last
            # event is included and precedes it.
            child = original.eids_of(e.target)
            if child:
                included = prefix_len.get(e.target, 0)
                at = position.get(child[-1])
                if at is None or at > here:
                    late = child[min(included, len(child) - 1)]
                    raise MalformedReorderingError(
                        f"{e} joins thread {e.target!r} but child event "
                        f"{events[late]} is missing or later",
                        rule="PO")
        elif kind is _VOLATILE_READ or kind is _VOLATILE_WRITE:
            volatiles.append(e.eid)
    _check_volatile_order(events, sorted(volatiles), position)


def _check_volatile_order(events: Sequence[Event], volatiles: List[int],
                          position: Dict[int, int]) -> None:
    """Conflicting volatile pairs (not both reads) keep trace order.

    Volatile predecessors need not be included, so this scans the
    included volatile accesses in trace order with per-variable running
    maxima: the eid of the latest-placed earlier write and read.
    """
    latest_write: Dict[Target, int] = {}
    latest_read: Dict[Target, int] = {}
    for eid in volatiles:
        e = events[eid]
        here = position[eid]
        is_write = e.kind is _VOLATILE_WRITE
        for latest in (latest_write, latest_read) if is_write else (latest_write,):
            earlier = latest.get(e.target)
            if earlier is not None and position[earlier] > here:
                raise MalformedReorderingError(
                    f"volatile accesses {events[earlier]} and {e} were swapped",
                    rule="CA")
        latest = latest_write if is_write else latest_read
        earlier = latest.get(e.target)
        if earlier is None or position[earlier] < here:
            latest[e.target] = eid
