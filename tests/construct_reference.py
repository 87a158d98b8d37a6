"""Reference vindication passes: the implementations that the
observed-order replay and the backward-edge cycle window replaced.

Kept as test oracles only:

* :func:`construct_reordered_trace` / :func:`_attempt` — the greedy
  backward constructor that builds the ready set up front and re-sorts
  it for every event it places;
* :func:`find_cycle_reaching` — the colouring DFS over the racing
  pair's whole ancestor set;
* :func:`add_constraints` — the LS fixpoint that materialises the race
  region as a set every round, finds LS candidates by intersecting
  bitset closures of a :class:`ReachabilityIndex` with the trace's
  acquire/release bitsets (:func:`_sync_event_masks`), and searches the
  region for cycles in full.

``tests/test_construct_differential.py`` asserts that the production
passes give the same verdict, witness and attempt count as these.
Lock-semantics bookkeeping (``_BackwardState``) and the LS pair search
are shared state machines, not part of what was replaced; the reference
imports the production ``_BackwardState`` and transcribes the pair
search with its set-valued region.
"""

from __future__ import annotations

import random
import weakref
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from repro.core.events import Event, EventKind, Target, Tid
from repro.core.exceptions import VindicationError
from repro.core.trace import Trace
from repro.graph.constraint_graph import ConstraintGraph
from repro.graph.reachability import ReachabilityIndex, mask_to_set
from repro.vindicate.add_constraints import ConstraintResult
from repro.vindicate.construct import (POLICIES, ConstructionStats,
                                       _BackwardState, _MissingRelease, _OK)


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def construct_reordered_trace(
    graph: ConstraintGraph,
    trace: Trace,
    e1: Event,
    e2: Event,
    policy: str = "latest",
    seed: int = 0,
    index: Optional[ReachabilityIndex] = None,
) -> Tuple[Optional[List[Event]], ConstructionStats]:
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    if index is None:
        index = ReachabilityIndex(graph)
    rng = random.Random(seed)
    needed: Set[int] = index.ancestors([e1.eid, e2.eid])
    needed.discard(e1.eid)
    needed.discard(e2.eid)
    stats = ConstructionStats()
    for _ in range(len(trace) + 1):
        stats.attempts += 1
        outcome = _attempt(graph, trace, needed, e1, e2, policy, rng)
        if isinstance(outcome, _MissingRelease):
            release = outcome.release
            stats.extra_releases += 1
            needed.add(release)
            needed.update(index.ancestors([release]))
            needed.discard(e1.eid)
            needed.discard(e2.eid)
            continue
        if outcome is not None:
            stats.placed_events = len(outcome)
        return outcome, stats
    raise VindicationError("missing-release retries exceeded the trace length")


def _attempt(
    graph: ConstraintGraph,
    trace: Trace,
    needed: Set[int],
    e1: Event,
    e2: Event,
    policy: str,
    rng: random.Random,
) -> Union[List[Event], _MissingRelease, None]:
    state = _BackwardState(trace)
    reversed_trace: List[Event] = []
    for seed_event in (e2, e1):
        check = state.ls_check(seed_event.eid)
        if check is not _OK:
            return None
        state.place(seed_event.eid)
        reversed_trace.append(seed_event)
    placed: Set[int] = {e1.eid, e2.eid}

    remaining = set(needed)
    blocking: Dict[int, int] = {}
    ready: Set[int] = set()
    for eid in remaining:
        count = sum(1 for succ in graph.successor_set(eid) if succ in remaining)
        blocking[eid] = count
        if count == 0:
            ready.add(eid)
    while remaining:
        chosen: Optional[Event] = None
        missing: List[Event] = []
        for eid in _in_policy_order(ready, policy, rng):
            event = trace.events[eid]
            check = state.ls_check(eid)
            if check is _OK:
                chosen = event
                break
            if check is not None:
                missing.append(trace.events[check])
        if chosen is not None:
            state.place(chosen.eid)
            reversed_trace.append(chosen)
            placed.add(chosen.eid)
            remaining.discard(chosen.eid)
            ready.discard(chosen.eid)
            for pred in graph.predecessor_set(chosen.eid):
                if pred in remaining:
                    blocking[pred] -= 1
                    if blocking[pred] == 0:
                        ready.add(pred)
            continue
        for release in sorted(missing, key=lambda r: -r.eid):
            if release.eid in needed or release.eid in placed:
                continue
            if state.ls_check(release.eid) is _OK:
                return _MissingRelease(release.eid)
        return None
    return list(reversed(reversed_trace))


def _in_policy_order(ready: Set[int], policy: str, rng: random.Random) -> List[int]:
    if policy == "latest":
        return sorted(ready, reverse=True)
    if policy == "earliest":
        return sorted(ready)
    shuffled = list(ready)
    rng.shuffle(shuffled)
    return shuffled


# ----------------------------------------------------------------------
# Cycle search
# ----------------------------------------------------------------------
def find_cycle_reaching(graph: ConstraintGraph, targets: Set[int],
                        region: Optional[Set[int]] = None) -> Optional[List[int]]:
    """Colouring DFS over every ancestor of ``targets`` (targets
    included), with no backward-edge window."""
    if region is None:
        region = graph.ancestors(targets, include_roots=True)
    region = set(region)
    region.update(targets)
    WHITE, GRAY, BLACK = 0, 1, 2
    color: Dict[int, int] = {}
    parent: Dict[int, int] = {}
    for root in region:
        if color.get(root, WHITE) != WHITE:
            continue
        stack: List[Tuple[int, Iterator[int]]] = [
            (root, iter(graph.successor_set(root)))]
        color[root] = GRAY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in region:
                    continue
                c = color.get(nxt, WHITE)
                if c == GRAY:
                    cycle = [nxt, node]
                    cur = node
                    while cur != nxt and cur in parent:
                        cur = parent[cur]
                        cycle.append(cur)
                    return cycle
                if c == WHITE:
                    color[nxt] = GRAY
                    parent[nxt] = node
                    stack.append((nxt, iter(graph.successor_set(nxt))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return None


# ----------------------------------------------------------------------
# ADDCONSTRAINTS
# ----------------------------------------------------------------------
def add_constraints(graph: ConstraintGraph, trace: Trace,
                    e1: Event, e2: Event,
                    use_window: bool = False,
                    index: Optional[ReachabilityIndex] = None) -> ConstraintResult:
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

    for src in list(graph.predecessors(e1.eid)):
        if add(src, e2.eid):
            result.consecutive_edges += 1
    for src in list(graph.predecessors(e2.eid)):
        if add(src, e1.eid):
            result.consecutive_edges += 1

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
        cycle = find_cycle_reaching(
            graph, {e1.eid, e2.eid},
            region=index.ancestors([e1.eid, e2.eid], include_roots=True))
        if cycle is not None:
            result.cycle = cycle
            return result
    return result


#: Per-trace memo for :func:`_sync_event_masks`; weak keys keep
#: finished traces collectable.
_sync_masks_cache: "weakref.WeakKeyDictionary[Trace, Tuple[int, int]]" = \
    weakref.WeakKeyDictionary()


def _sync_event_masks(trace: Trace) -> Tuple[int, int]:
    """Bitsets of the trace's acquire and release event ids, so the LS
    pair search can intersect reachability masks against them."""
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
                  race_region: Set[int], bounds, index: ReachabilityIndex,
                  sync_masks: Tuple[int, int]) -> List[Tuple[int, int]]:
    acq_events, rel_events = sync_masks
    anc_mask = index.ancestors_mask([src], within=bounds) | (1 << src)
    desc_mask = index.descendants_mask([snk], within=bounds) | (1 << snk)
    events = trace.events
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
            continue
        for (_, lock_r), r in earliest_rel.items():
            if lock_a != lock_r:
                continue
            acquire_of_r = trace.acquire_of(r)
            if acquire_of_r.eid == a.eid:
                continue
            if acquire_of_r.eid not in race_region:
                continue
            if graph.has_edge(release_of_a.eid, acquire_of_r.eid):
                continue
            if index.reaches(release_of_a.eid, acquire_of_r.eid):
                continue
            edges.append((release_of_a.eid, acquire_of_r.eid))
    return edges


# ----------------------------------------------------------------------
# One race end to end
# ----------------------------------------------------------------------
def vindicate(graph: ConstraintGraph, trace: Trace, e1: Event, e2: Event,
              index: ReachabilityIndex, policy: str = "latest", seed: int = 0,
              use_window: bool = False):
    """``(verdict name, witness eids, cycle, attempts)`` for one race,
    with the graph and ``index`` restored afterwards. Pass an index of
    the reference's own, so it shares no cache with the production run."""
    checkpoint = index.checkpoint()
    constraints = add_constraints(graph, trace, e1, e2,
                                  use_window=use_window, index=index)
    try:
        if constraints.refuted:
            return "NO_RACE", None, constraints.cycle, 0
        witness, stats = construct_reordered_trace(
            graph, trace, e1, e2, policy=policy, seed=seed, index=index)
        if witness is None:
            return "UNKNOWN", None, None, stats.attempts
        return "RACE", [e.eid for e in witness], None, stats.attempts
    finally:
        for src, dst in reversed(constraints.added_edges):
            graph.remove_edge(src, dst)
        index.restore(checkpoint)
