"""Reference witness checker: the trace-scanning implementation of
Definition 2.1 that ``repro.vindicate.verify`` replaced.

Kept verbatim as a test oracle only. Each check makes several passes
over the original trace (and a quadratic scan over volatile pairs), so
it is slow on long traces, but its rules are a direct transcription of
the definitions. ``tests/test_verify_differential.py`` asserts that the
indexed checker agrees with it — same accept/reject and same ``rule`` —
on every mutant it generates.

The checker enforces:

* the **PO rule** — program-ordered events keep their order, and a
  thread's included events form a prefix of its original sequence;
* the **CA rule** — conflicting accesses keep their trace order (this
  includes the witness's racing pair itself: Definition 2.2 makes the
  pair consecutive *in trace order*, first access first);
* the **LS rule** — critical sections on one lock never overlap;
* the **hard-edge rules** (model extension for fork/join/volatiles,
  which the paper's formal model omits but its implementation handles):
  a fork precedes all included child events, a join requires the whole
  child, and conflicting volatile accesses keep their order.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

from repro.core.events import Event, EventKind, Target, Tid, conflicts
from repro.core.exceptions import MalformedReorderingError
from repro.core.trace import Trace


def check_correct_reordering(original: Trace, reordered: Sequence[Event]) -> None:
    """Raise :class:`MalformedReorderingError` unless ``reordered`` is a
    correct reordering of ``original`` per Definition 2.1 (plus the
    fork/join/volatile extensions)."""
    _check_membership(original, reordered)
    _check_program_order(original, reordered)
    _check_conflicting_accesses(original, reordered)
    _check_lock_semantics(reordered)
    _check_thread_edges(original, reordered)


def check_witness(original: Trace, reordered: Sequence[Event],
                  first: Event, second: Event) -> None:
    """Check that ``reordered`` witnesses a predictable race between
    ``first`` and ``second`` (Definition 2.2): it is a correct reordering
    in which the two conflicting events execute consecutively."""
    check_correct_reordering(original, reordered)
    if not conflicts(first, second):
        raise MalformedReorderingError(
            f"{first} and {second} are not conflicting", rule="EVENTS")
    positions = {e.eid: i for i, e in enumerate(reordered)}
    if first.eid not in positions or second.eid not in positions:
        raise MalformedReorderingError(
            "witness omits one of the racing events", rule="EVENTS")
    if positions[second.eid] != positions[first.eid] + 1:
        raise MalformedReorderingError(
            f"racing events are not consecutive: positions "
            f"{positions[first.eid]} and {positions[second.eid]}",
            rule="EVENTS")


# ----------------------------------------------------------------------
# Individual rules
# ----------------------------------------------------------------------
def _check_membership(original: Trace, reordered: Sequence[Event]) -> None:
    seen: Set[int] = set()
    for e in reordered:
        if e.eid >= len(original) or original[e.eid] != e:
            raise MalformedReorderingError(
                f"{e} is not an event of the original trace", rule="EVENTS")
        if e.eid in seen:
            raise MalformedReorderingError(f"{e} appears twice", rule="EVENTS")
        seen.add(e.eid)


def _check_program_order(original: Trace, reordered: Sequence[Event]) -> None:
    expected: Dict[Tid, List[Event]] = {}
    for e in reordered:
        expected.setdefault(e.tid, []).append(e)
    for tid, events in expected.items():
        originals = original.events_of(tid)
        prefix = originals[:len(events)]
        if events != prefix:
            raise MalformedReorderingError(
                f"thread {tid!r}'s events are not a program-order prefix: "
                f"got {events}, expected prefix {prefix}",
                rule="PO")


def _check_conflicting_accesses(original: Trace,
                                reordered: Sequence[Event]) -> None:
    """CA check in one pass over the original trace (linear in the
    trace, not the witness).

    Runs after the PO check, so same-thread accesses are already known to
    keep their order; the running per-variable maxima below therefore only
    ever trip on genuinely conflicting (cross-thread) pairs. On a
    violation, the quadratic scan reruns to name the exact pair.
    """
    included = {e.eid for e in reordered}
    position = {e.eid: i for i, e in enumerate(reordered)}
    # Order preservation: scan included accesses in original order,
    # tracking the latest witness positions of earlier writes/reads.
    max_wr_pos: Dict[Target, int] = {}
    max_rd_pos: Dict[Target, int] = {}
    # Inclusion: threads with an *excluded* earlier write/read per var.
    missing_wr: Dict[Target, Set] = {}
    missing_rd: Dict[Target, Set] = {}
    for e in original:
        if not e.is_access:
            continue
        var = e.target
        if e.eid not in included:
            table = missing_wr if e.is_write else missing_rd
            table.setdefault(var, set()).add(e.tid)
            continue
        pos = position[e.eid]
        swapped = max_wr_pos.get(var, -1) > pos
        missing = missing_wr.get(var, set()) - {e.tid}
        if e.is_write:
            swapped = swapped or max_rd_pos.get(var, -1) > pos
            missing = missing | (missing_rd.get(var, set()) - {e.tid})
        if swapped or missing:
            _diagnose_ca_violation(original, reordered)
        if e.is_write:
            max_wr_pos[var] = max(max_wr_pos.get(var, -1), pos)
        else:
            max_rd_pos[var] = max(max_rd_pos.get(var, -1), pos)


def _diagnose_ca_violation(original: Trace,
                           reordered: Sequence[Event]) -> None:
    """Quadratic rescan that names the offending pair, then raises."""
    included = {e.eid for e in reordered}
    position = {e.eid: i for i, e in enumerate(reordered)}
    by_var: Dict[Target, List[Event]] = {}
    for e in original:
        if e.is_access and e.eid in included:
            by_var.setdefault(e.target, []).append(e)
    for accesses in by_var.values():
        for i, e1 in enumerate(accesses):
            for e2 in accesses[i + 1:]:
                if conflicts(e1, e2) and position[e1.eid] > position[e2.eid]:
                    raise MalformedReorderingError(
                        f"conflicting accesses {e1} and {e2} were swapped",
                        rule="CA")
    for e2 in reordered:
        if not e2.is_access:
            continue
        for e1 in original:
            if e1.eid >= e2.eid:
                break
            if conflicts(e1, e2) and e1.eid not in included:
                raise MalformedReorderingError(
                    f"{e2} is included but its conflicting predecessor "
                    f"{e1} is not",
                    rule="CA")
    raise MalformedReorderingError(
        "conflicting-access constraint violated", rule="CA")


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


def _check_thread_edges(original: Trace, reordered: Sequence[Event]) -> None:
    included = {e.eid for e in reordered}
    position = {e.eid: i for i, e in enumerate(reordered)}
    forks: Dict[Tid, Event] = {}
    for e in original:
        if e.kind is EventKind.FORK:
            forks[e.target] = e
    for e in reordered:
        fork = forks.get(e.tid)
        if fork is not None:
            if fork.eid not in included or position[fork.eid] > position[e.eid]:
                raise MalformedReorderingError(
                    f"{e} executes without (or before) its fork {fork}",
                    rule="PO")
        if e.kind is EventKind.JOIN:
            for child_event in original.events_of(e.target):
                if (child_event.eid not in included
                        or position[child_event.eid] > position[e.eid]):
                    raise MalformedReorderingError(
                        f"{e} joins thread {e.target!r} but child event "
                        f"{child_event} is missing or later",
                        rule="PO")
    # Volatile ordering: conflicting volatile pairs keep trace order.
    by_var: Dict[Target, List[Event]] = {}
    for e in original:
        if e.kind.is_volatile and e.eid in included:
            by_var.setdefault(e.target, []).append(e)
    for accesses in by_var.values():
        for i, e1 in enumerate(accesses):
            for e2 in accesses[i + 1:]:
                both_reads = (e1.kind is EventKind.VOLATILE_READ
                              and e2.kind is EventKind.VOLATILE_READ)
                if not both_reads and position[e1.eid] > position[e2.eid]:
                    raise MalformedReorderingError(
                        f"volatile accesses {e1} and {e2} were swapped",
                        rule="CA")
