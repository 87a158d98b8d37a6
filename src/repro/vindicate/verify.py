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

**Cut witnesses.** A :class:`~repro.core.witness.CutWitness` — the
observed order restricted to one prefix per thread, then the racing
pair — is decided from the cut alone, in O(T²) for T threads plus the
pair's own conflict predecessors, without listing its events. The same
index holds, per thread prefix, a *requirement clock*: the latest local
time per other thread that the prefix's accesses need (previous writes,
and for a write the reads since it), and separately what its joins need
(the whole child). Both are sparse change points, bisected per
(thread, thread). Per (thread, lock) it holds the acquire eids, so a
section the cut leaves open can be checked to be its lock's last
acquire in the cut. The rules run in the precedence above, so a cut
witness gets the verdict, and on rejection the rule, that its event
list would (``docs/ALGORITHMS.md``, "Cut witnesses").

**Independence.** The checker shares no code with the constructor: it
imports nothing from ``construct``, ``add_constraints`` or
``repro.graph`` (``tests/test_verify_cost.py`` enforces this).
"""

from __future__ import annotations

import weakref
from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.core.events import (CODE_ACQUIRE, CODE_FORK, CODE_JOIN, CODE_READ,
                               CODE_RELEASE, CODE_WRITE, Event, EventKind,
                               Target, Tid, conflicts)
from repro.core.exceptions import MalformedReorderingError
from repro.core.trace import Trace
from repro.core.witness import CutWitness, ListedWitness, Witness

_READ = EventKind.READ
_WRITE = EventKind.WRITE
_VOLATILE_READ = EventKind.VOLATILE_READ
_VOLATILE_WRITE = EventKind.VOLATILE_WRITE
_JOIN = EventKind.JOIN


#: Per other thread index: the local times of a thread at which a
#: requirement rises, and the required local time from there on.
Requirements = Dict[int, Tuple[List[int], List[int]]]


class TraceIndex:
    """Immutable per-trace structure the checker reads instead of the trace.

    Built in one pass over the trace's ``codes``/``tix``/``tgt`` columns;
    every field is O(n) ints. Threads and locks are the trace's own
    indices (``tix``, ``tgt``), so cuts index ``requires`` and ``joins``
    directly. The per-thread eid lists and ``local_time`` it also relies
    on are already on :class:`Trace`.

    Attributes:
        size: Number of events indexed (a changed length forces a rebuild).
        fork_of: Child thread index -> eid of the fork that creates it.
        prev_write: Per event, the eid of the previous plain write to the
            same variable, or -1 (also -1 for non-accesses).
        reads_before: Plain write eid -> eids of the reads of its variable
            since the previous write (omitted when there are none).
        requires: Per thread index, the requirement clock of its
            prefixes: what their accesses' immediate conflict
            predecessors need of each other thread.
        joins: Per thread index, what its prefixes' joins need of each
            other thread: the child's length, or one more when a child
            event follows the join in the trace (no cut satisfies it).
        lock_acquires: Lock index -> ``(thread index, acquire eids)`` per
            thread that acquires it.
    """

    __slots__ = ("size", "fork_of", "prev_write", "reads_before",
                 "requires", "joins", "lock_acquires")

    def __init__(self, trace: Trace) -> None:
        codes, tix, tgt = trace.codes, trace.tix, trace.tgt
        local, thread_eids = trace.local_time, trace.thread_eids
        self.size = len(codes)
        self.fork_of: Dict[int, int] = {}
        self.prev_write: List[int] = [-1] * self.size
        self.reads_before: Dict[int, List[int]] = {}
        self.requires: List[Requirements] = [{} for _ in thread_eids]
        self.joins: List[Requirements] = [{} for _ in thread_eids]
        prev_write, requires = self.prev_write, self.requires
        acquires: Dict[Tuple[int, int], List[int]] = {}
        last_write = [-1] * len(trace.var_names)
        pending_reads: Dict[int, List[int]] = {}
        for eid, code in enumerate(codes):
            if code <= CODE_WRITE:
                var, ti = tgt[eid], tix[eid]
                write = last_write[var]
                prev_write[eid] = write
                if write >= 0 and tix[write] != ti:
                    _require(requires[ti], local[eid], tix[write],
                             local[write])
                if code == CODE_READ:
                    reads = pending_reads.get(var)
                    if reads is None:
                        reads = pending_reads[var] = []
                    reads.append(eid)
                    continue
                reads = pending_reads.pop(var, None)
                if reads is not None:
                    self.reads_before[eid] = reads
                    for read in reads:
                        if tix[read] != ti:
                            _require(requires[ti], local[eid], tix[read],
                                     local[read])
                last_write[var] = eid
            elif code == CODE_ACQUIRE:
                key = (tix[eid], tgt[eid])
                held = acquires.get(key)
                if held is None:
                    held = acquires[key] = []
                held.append(eid)
            elif code == CODE_FORK:
                self.fork_of[tgt[eid]] = eid
            elif code == CODE_JOIN:
                child, ti = tgt[eid], tix[eid]
                eids = thread_eids[child]
                if eids and child != ti:
                    need = len(eids) + (eids[-1] > eid)
                    _require(self.joins[ti], local[eid], child, need)
        self.lock_acquires: Dict[int, List[Tuple[int, List[int]]]] = {}
        for (t, lock), eids in acquires.items():
            self.lock_acquires.setdefault(lock, []).append((t, eids))


def _require(points: Requirements, at: int, thread: int, need: int) -> None:
    """Raise a thread's requirement on another ``thread`` to ``need``
    from its local time ``at`` on. (Program order covers its own.)"""
    entry = points.get(thread)
    if entry is None:
        points[thread] = ([at], [need])
        return
    times, needs = entry
    if need <= needs[-1]:
        return
    if times[-1] == at:
        needs[-1] = need
    else:
        times.append(at)
        needs.append(need)


def _required(points: Requirements, count: int, cut: Sequence[int]) -> int:
    """A thread index whose cut falls short of what a prefix of
    ``count`` events requires, or -1."""
    for thread, (times, needs) in points.items():
        i = bisect_right(times, count)
        if i and needs[i - 1] > cut[thread]:
            return thread
    return -1


_INDEXES: "weakref.WeakKeyDictionary[Trace, TraceIndex]" = \
    weakref.WeakKeyDictionary()


def _trace_index(trace: Trace,
                 span: str = "vindicate.check_witness.index") -> TraceIndex:
    """The cached :class:`TraceIndex` of ``trace``, built on first use
    inside a span named ``span``.

    Two threads checking a fresh trace at once may both build it; the
    indexes are equal, so whichever is stored last is as good.
    """
    index = _INDEXES.get(trace)
    if index is None or index.size != len(trace):
        with obs.span(span) as sp:
            index = TraceIndex(trace)
            sp.annotate("events", index.size)
        _INDEXES[trace] = index
    return index


def index_trace(trace: Trace) -> None:
    """Build (or find cached) the index the checks of ``trace``'s
    witnesses read, in a ``vindicate.trace_index`` span: a pipeline
    that will check witnesses builds it once, ahead of its races."""
    _trace_index(trace, "vindicate.trace_index")


Reordering = Union[Witness, Sequence[Event]]


def check_correct_reordering(original: Trace, reordered: Reordering) -> None:
    """Raise :class:`MalformedReorderingError` unless ``reordered`` is a
    correct reordering of ``original`` per Definition 2.1 (plus the
    fork/join/volatile extensions)."""
    if _in_cut_form(reordered):
        _check_cut(original, _trace_index(original), reordered)
    else:
        _check_reordering(original, _listed(reordered))


def check_witness(original: Trace, reordered: Reordering,
                  first: Event, second: Event) -> None:
    """Check that ``reordered`` witnesses a predictable race between
    ``first`` and ``second`` (Definition 2.2): it is a correct reordering
    in which the two conflicting events execute consecutively.

    A :class:`CutWitness` whose own racing pair are plain accesses is
    checked in cut form, anything else as an event list; the metrics
    counters ``vindicate.witness.cut`` and ``vindicate.witness.listed``
    count which."""
    cut_form = _in_cut_form(reordered)
    reg = obs.metrics()
    if reg.enabled:
        reg.add("vindicate.witness.cut" if cut_form
                else "vindicate.witness.listed", 1)
    if cut_form:
        _check_cut(original, _trace_index(original), reordered)
        at = _cut_position(original, reordered, first)
        then = _cut_position(original, reordered, second)
    else:
        position = _check_reordering(original, _listed(reordered))
        at = position.get(first.eid)
        then = position.get(second.eid)
    if not conflicts(first, second):
        raise MalformedReorderingError(
            f"{first} and {second} are not conflicting", rule="EVENTS")
    if at is None or then is None:
        raise MalformedReorderingError(
            "witness omits one of the racing events", rule="EVENTS")
    if then != at + 1:
        raise MalformedReorderingError(
            f"racing events are not consecutive: positions {at} and {then}",
            rule="EVENTS")


def _in_cut_form(reordered: Reordering) -> bool:
    """Whether ``reordered`` is checked as a cut: a cut witness whose
    racing pair are plain accesses, so that the pair take or release no
    lock, fork or join nothing, and only the cut's sections and thread
    edges need checking."""
    return (isinstance(reordered, CutWitness)
            and reordered.first.is_access and reordered.second.is_access)


def _listed(reordered: Reordering) -> Sequence[Event]:
    if isinstance(reordered, (CutWitness, ListedWitness)):
        return reordered.events()
    return reordered


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
# Cut witnesses
# ----------------------------------------------------------------------
def _check_cut(original: Trace, index: TraceIndex,
               witness: CutWitness) -> None:
    """Definition 2.1 for the observed order restricted to the cut, then
    the racing pair, rule by rule in the event-level precedence.

    The cut part keeps trace order, so only inclusion can fail there:
    each rule asks whether the cut holds what its prefixes need, and
    whether the pair, placed after the whole cut, may follow it.
    """
    events, local = original.events, original.local_time
    tix, thread_eids = original.tix, original.thread_eids
    tids = original.tid_names
    cut = witness.cut
    first, second = witness.first, witness.second
    n = len(original)
    # Membership: the cut fits the trace, the pair are trace events
    # outside it, and distinct.
    if len(cut) != len(thread_eids) or any(
            not 0 <= count <= len(eids)
            for eids, count in zip(thread_eids, cut)):
        raise MalformedReorderingError(
            f"cut {cut} does not fit the trace's threads", rule="EVENTS")
    for e in (first, second):
        eid = e.eid
        if not 0 <= eid < n or events[eid] != e:
            raise MalformedReorderingError(
                f"{e} is not an event of the original trace", rule="EVENTS")
    t1, t2 = tix[first.eid], tix[second.eid]
    for e, t in ((first, t1), (second, t2)):
        if local[e.eid] <= cut[t]:
            raise MalformedReorderingError(f"{e} appears twice", rule="EVENTS")
    if first.eid == second.eid:
        raise MalformedReorderingError(f"{second} appears twice",
                                       rule="EVENTS")
    # PO: the pair continue their threads' prefixes.
    if local[first.eid] != cut[t1] + 1 or \
            local[second.eid] != cut[t2] + 1 + (t1 == t2):
        raise MalformedReorderingError(
            f"the racing events {first} and {second} do not continue "
            f"their threads' prefixes {cut[t1]} and {cut[t2]}", rule="PO")
    # CA: every prefix holds its accesses' conflict predecessors, and
    # the pair's own are in the cut (the second's may be the first).
    requires = index.requires
    for t, count in enumerate(cut):
        short = _required(requires[t], count, cut)
        if short >= 0:
            raise MalformedReorderingError(
                f"thread {tids[t]!r}'s first {count} events need "
                f"more of thread {tids[short]!r} than its "
                f"{cut[short]}", rule="CA")
    for e, allowed in ((first, -1), (second, first.eid)):
        for pred in _conflict_predecessors(index, e):
            if pred != allowed and local[pred] > cut[tix[pred]]:
                raise MalformedReorderingError(
                    f"{e} is included but its conflicting predecessor "
                    f"{events[pred]} is not before it", rule="CA")
    _check_cut_sections(original, index, cut)
    # Hard edges: a thread's first included event follows its fork, and
    # a join follows the whole child.
    fork_of = index.fork_of
    for t, count in enumerate(cut):
        if not (count or t == t1 or t == t2):
            continue
        fork = fork_of.get(t)
        if fork is None:
            continue
        if local[fork] > cut[tix[fork]] or (
                count and thread_eids[t][0] < fork):
            raise MalformedReorderingError(
                f"thread {tids[t]!r} executes without (or before) its fork "
                f"{events[fork]}", rule="PO")
    joins = index.joins
    for t, count in enumerate(cut):
        short = _required(joins[t], count, cut)
        if short >= 0:
            raise MalformedReorderingError(
                f"thread {tids[t]!r} joins thread "
                f"{tids[short]!r} before all its events", rule="PO")


def _conflict_predecessors(index: TraceIndex, e: Event) -> List[int]:
    """The immediate conflict predecessors of the access ``e``."""
    preds = list(index.reads_before.get(e.eid, ())) if e.is_write else []
    write = index.prev_write[e.eid]
    if write >= 0:
        preds.append(write)
    return preds


def _check_cut_sections(original: Trace, index: TraceIndex,
                        cut: Sequence[int]) -> None:
    """LS for a cut: critical sections in trace order never overlap, so
    the only overlap is a section the cut leaves open followed by a
    later acquire of its lock that the cut holds. The racing pair are
    accesses, so they open and close nothing."""
    codes, tgt = original.codes, original.tgt
    bounds = [eids[count - 1] if count else -1
              for eids, count in zip(original.thread_eids, cut)]
    for t, last in enumerate(bounds):
        held = original.enclosing_acquires[last] if last >= 0 else ()
        if not held:
            continue
        closed = original.acquire_eid(last) \
            if codes[last] == CODE_RELEASE else -1
        for acquire in held:
            if acquire == closed:
                continue
            for u, acquires in index.lock_acquires[tgt[acquire]]:
                i = bisect_right(acquires, bounds[u])
                if u != t and i and acquires[i - 1] > acquire:
                    raise MalformedReorderingError(
                        f"{original.events[acquires[i - 1]]} acquires a "
                        f"lock held by thread {original.tid_names[t]!r}",
                        rule="LS")


def _cut_position(original: Trace, witness: CutWitness,
                  e: Event) -> Optional[int]:
    """The position of the event with ``e``'s eid in the witness, or
    None: the pair come last, and a cut event follows every cut event
    with a smaller eid."""
    eid = e.eid
    if eid == witness.second.eid:
        return len(witness) - 1
    if eid == witness.first.eid:
        return len(witness) - 2
    if not 0 <= eid < len(original):
        return None
    if original.local_time[eid] > witness.cut[original.tix[eid]]:
        return None
    return sum(bisect_left(eids, eid, 0, count)
               for eids, count in zip(original.thread_eids, witness.cut))


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
        if not 0 <= eid < n or events[eid] != e:
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
    events, tix = original.events, original.tix
    fork_of = index.fork_of
    volatiles: List[int] = []
    for here, e in enumerate(reordered):
        fork = fork_of.get(tix[e.eid])
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
