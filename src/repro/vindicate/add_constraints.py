"""ADDCONSTRAINTS (Algorithm 1, lines 11–23).

Given the constraint graph ``G`` and a DC-race ``(e1, e2)``, this step
adds the constraints a correctly reordered trace exposing the race must
satisfy:

* **consecutive-event constraints** — every predecessor of ``e1`` (resp.
  ``e2``) must also precede ``e2`` (resp. ``e1``), since the two events
  are to execute back to back;
* **lock-semantics (LS) constraints** — whenever two critical sections
  on one lock become partially ordered through an added edge, and both
  are (partially) needed before the race, the earlier section must
  complete before the later one begins: an edge from ``R(a)`` to
  ``A(r)``.

Constraint discovery iterates to convergence because each added edge may
order further critical sections. If the constraints form a cycle that
reaches the racing events, no correctly reordered trace exists and the
DC-race is refuted.

Per the paper's implementation notes, the search prunes redundant
acquire–release pairs using program order: among candidate acquires of
one thread and lock only the program-order-latest matters, and among
candidate releases only the earliest, since the other pairs' edges are
implied through program order.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.events import Event, EventKind, Target, Tid
from repro.core.trace import Trace
from repro.graph.constraint_graph import ConstraintGraph
from repro.graph.reachability import ReachabilityIndex, mask_to_set


@dataclass
class ConstraintResult:
    """Outcome of ADDCONSTRAINTS.

    Attributes:
        cycle: A constraint cycle reaching the race (None if acyclic);
            a non-None cycle refutes the DC-race.
        added_edges: Every edge added to the graph, in order, so the
            caller can remove them afterwards (the graph is shared across
            vindications of independent races).
        consecutive_edges: Number of consecutive-event constraints added.
        ls_edges: Number of lock-semantics constraints added (Table 3's
            "LS constraints added" metric).
        rounds: Convergence rounds of the do–while loop.
    """

    cycle: Optional[List[int]] = None
    added_edges: List[Tuple[int, int]] = field(default_factory=list)
    consecutive_edges: int = 0
    ls_edges: int = 0
    rounds: int = 0
    #: Cycle searches performed (one closes every convergence round).
    cycle_checks: int = 0

    @property
    def refuted(self) -> bool:
        return self.cycle is not None


def add_constraints(graph: ConstraintGraph, trace: Trace,
                    e1: Event, e2: Event,
                    use_window: bool = False,
                    index: Optional[ReachabilityIndex] = None) -> ConstraintResult:
    """Run ADDCONSTRAINTS for the DC-race ``(e1, e2)``, mutating ``graph``.

    The caller is responsible for removing ``result.added_edges`` once
    vindication of this race finishes.

    Args:
        use_window: Enable the paper's window optimisation (Section 6.1):
            the LS-constraint pair search only traverses events between
            the racing pair, expanding the window on the fly to cover
            every edge it adds. The constraints found are a subset of
            the unwindowed search's; soundness is unaffected (a RACE
            verdict is still gated by the witness checker), but a
            refutation can degrade to *don't know* when the refuting
            cycle involves critical sections outside the window (see
            ``litmus.wcp_deadlock``). On the workload corpora verdicts
            are unchanged (window ablation benchmark).
        index: Reachability engine over ``graph`` to answer the
            ancestor/descendant/reaches queries (one is created when not
            supplied; callers vindicating many races should share one).
    """
    if index is None:
        index = ReachabilityIndex(graph)
    result = ConstraintResult()
    worklist: List[Tuple[int, int]] = []
    window = [min(e1.eid, e2.eid), max(e1.eid, e2.eid)] if use_window else None

    def add(src: int, dst: int) -> bool:
        if src == dst or graph.has_edge(src, dst):
            return False
        graph.add_edge(src, dst)
        result.added_edges.append((src, dst))
        worklist.append((src, dst))
        if window is not None:
            window[0] = min(window[0], src, dst)
            window[1] = max(window[1], src, dst)
        return True

    # --- Consecutive-event constraints (lines 12–13) -------------------
    for src in list(graph.predecessors(e1.eid)):
        if add(src, e2.eid):
            result.consecutive_edges += 1
    for src in list(graph.predecessors(e2.eid)):
        if add(src, e1.eid):
            result.consecutive_edges += 1

    # --- LS constraint fixpoint (lines 14–22) ---------------------------
    sync_masks = _sync_event_masks(trace)
    changed = True
    while changed:
        changed = False
        result.rounds += 1
        bounds = tuple(window) if window is not None else None
        race_region = index.ancestors([e1.eid, e2.eid], include_roots=True,
                                      within=bounds)
        for src, snk in list(worklist):
            for edge in _ls_edges_for(graph, trace, src, snk, race_region,
                                      bounds, index, sync_masks):
                if add(*edge):
                    result.ls_edges += 1
                    changed = True
        result.cycle_checks += 1
        cycle = graph.find_cycle_reaching(
            {e1.eid, e2.eid},
            region=index.ancestors([e1.eid, e2.eid], include_roots=True))
        if cycle is not None:
            result.cycle = cycle
            return result
    return result


#: Per-trace memo for :func:`_sync_event_masks` — traces are immutable
#: and vindicated many times (once per race), so the O(n) scan is paid
#: once. Weak keys keep finished traces collectable.
_sync_masks_cache: "weakref.WeakKeyDictionary[Trace, Tuple[int, int]]" = \
    weakref.WeakKeyDictionary()


def _sync_event_masks(trace: Trace) -> Tuple[int, int]:
    """Bitsets of the trace's acquire and release event ids, so the LS
    pair search can intersect reachability masks against them instead of
    scanning whole ancestor/descendant sets event by event."""
    masks = _sync_masks_cache.get(trace)
    if masks is None:
        size = (len(trace) + 7) // 8
        acq = bytearray(size)
        rel = bytearray(size)
        for e in trace:
            if e.kind is EventKind.ACQUIRE:
                acq[e.eid >> 3] |= 1 << (e.eid & 7)
            elif e.kind is EventKind.RELEASE:
                rel[e.eid >> 3] |= 1 << (e.eid & 7)
        masks = (int.from_bytes(acq, "little"), int.from_bytes(rel, "little"))
        _sync_masks_cache[trace] = masks
    return masks


def _ls_edges_for(graph: ConstraintGraph, trace: Trace, src: int, snk: int,
                  race_region: Set[int],
                  bounds=None,
                  index: Optional[ReachabilityIndex] = None,
                  sync_masks: Optional[Tuple[int, int]] = None) -> List[Tuple[int, int]]:
    """LS edges implied by the constraint edge ``(src, snk)``.

    An acquire ``a`` with ``a ⇝ src`` and a release ``r`` with
    ``snk ⇝ r`` on the same lock are partially ordered through the edge;
    if ``r``'s critical section is needed before the race
    (``A(r) ⇝ e1 ∨ A(r) ⇝ e2``), the full ordering ``R(a) → A(r)`` is a
    necessary constraint.

    The candidate search runs in mask space: only the (usually tiny)
    intersection of the reachability closures with the trace's
    acquire/release bitsets is ever materialised.
    """
    if index is None:
        index = ReachabilityIndex(graph)
    if sync_masks is None:
        sync_masks = _sync_event_masks(trace)
    acq_events, rel_events = sync_masks
    anc_mask = index.ancestors_mask([src], within=bounds) | (1 << src)
    desc_mask = index.descendants_mask([snk], within=bounds) | (1 << snk)
    events = trace.events

    # Program-order pruning: keep only the latest candidate acquire and
    # the earliest candidate release per (thread, lock).
    latest_acq: Dict[Tuple[Tid, Target], Event] = {}
    for eid in mask_to_set(anc_mask & acq_events):
        e = events[eid]
        key = (e.tid, e.target)
        best = latest_acq.get(key)
        if best is None or e.eid > best.eid:
            latest_acq[key] = e
    earliest_rel: Dict[Tuple[Tid, Target], Event] = {}
    for eid in mask_to_set(desc_mask & rel_events):
        e = events[eid]
        key = (e.tid, e.target)
        best = earliest_rel.get(key)
        if best is None or e.eid < best.eid:
            earliest_rel[key] = e

    edges: List[Tuple[int, int]] = []
    for (_, lock_a), a in latest_acq.items():
        release_of_a = trace.release_of(a)
        if release_of_a is None:
            continue  # critical section never closes; cannot constrain it
        for (_, lock_r), r in earliest_rel.items():
            if lock_a != lock_r:
                continue
            acquire_of_r = trace.acquire_of(r)
            if acquire_of_r.eid == a.eid:
                continue  # same critical section
            if acquire_of_r.eid not in race_region:
                continue  # r's critical section is not needed for the race
            if graph.has_edge(release_of_a.eid, acquire_of_r.eid):
                continue
            if index.reaches(release_of_a.eid, acquire_of_r.eid):
                continue  # already fully ordered
            edges.append((release_of_a.eid, acquire_of_r.eid))
    return edges
