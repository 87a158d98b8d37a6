"""Reachability in the constraint graph as per-thread cuts.

VindicateRace (Algorithm 1) asks ``G`` for the ancestors and
descendants of event sets and for ``reaches`` probes. ``G`` holds every
program-order edge (the DC detectors add ``prev(e) → e`` for each
event), so a strict ancestor set is closed downward in program order:
it is a *cut*, one prefix per thread, stored as the latest 1-based local
time it holds per thread (0 for none). A descendant set is closed
upward: one suffix per thread, stored as the earliest local time it
holds (``len(trace) + 1`` for none).

:class:`CutIndex` keeps two cut tables over the trace, built once by
one forward and one reverse pass over the graph's *forward* edges
(``src < dst``). The forward-edge graph is acyclic, so an event's own
thread contributes exactly its program-order prefix (suffix) and the
tables only have to carry the other threads. An event whose only
forward in-edge (out-edge) is the program-order one shares its thread
neighbour's tuple; only events with a cross-thread edge get a tuple of
their own.

Every other edge is an *overlay* edge: the backward edges present at
build time, and whatever was added since, read from the graph's
mutation journal. A query starts from the table cuts of its roots and
joins, to a fixpoint, the table cut of every overlay edge's source
whose sink lies in the cut (or is a root), which is O(k²·T) for k
overlay edges and T threads. Removing an edge the tables were built
with, or a journal overflow, rebuilds the tables.

Strictness matches :class:`~repro.graph.constraint_graph.ConstraintGraph`:
a root is in its own set only when it lies on a cycle.

Counters: a table build, or a query whose fixpoint joined an overlay
edge, is a miss; a query the pristine tables answered alone is a hit;
a rebuild is an invalidation.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.core.events import Event, EventKind, Target, Tid
from repro.core.trace import Trace
from repro.graph.constraint_graph import ConstraintGraph

Cut = Tuple[int, ...]
Edge = Tuple[int, int]


class CutIndex:
    """Ancestor and descendant cuts over one trace's constraint graph.

    The index never mutates the graph. It builds its tables on the first
    :meth:`sync` (every query syncs) and follows later mutations through
    :attr:`ConstraintGraph.generation` and the graph's journal.
    """

    def __init__(self, graph: ConstraintGraph, trace: Trace):
        self.graph = graph
        self.trace = trace
        self._generation = -1
        self._journal_pos = 0
        #: Per event: the strict ancestor cut (descendant cut) of the
        #: forward-edge graph, own-thread entry excepted; None until built.
        self._anc: Optional[List[Cut]] = None
        self._desc: List[Cut] = []
        #: Per event: its thread's index into the cut tuples.
        self._thread: List[int] = []
        #: Per thread index: the thread's event ids in program order.
        self._eids: List[Sequence[int]] = []
        #: ``(thread index, tid, lock, sorted local times)`` of the
        #: thread's acquires (releases) of the lock.
        self._acquires: List[Tuple[int, Tid, Target, List[int]]] = []
        self._releases: List[Tuple[int, Tid, Target, List[int]]] = []
        #: Per lock: ``(thread index, sorted local times)`` of its acquires.
        self._lock_acquires: Dict[Target, List[Tuple[int, List[int]]]] = {}
        #: Edges the tables do not cover, in insertion order.
        self._overlay: Dict[Edge, None] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    # Tables
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Build the tables if needed and catch up with graph mutations:
        added edges join the overlay, removed overlay edges leave it, and
        a removed table edge or an overflowed journal rebuilds."""
        graph = self.graph
        if self._generation == graph.generation:
            return
        if self._anc is None:
            self._build()
            return
        self._generation = graph.generation
        entries, self._journal_pos = graph.mutations_since(self._journal_pos)
        if entries is None:
            self._rebuild()
            return
        overlay = self._overlay
        for is_add, src, dst in entries:
            if is_add:
                overlay[(src, dst)] = None
            elif (src, dst) in overlay:
                del overlay[(src, dst)]
            else:
                self._rebuild()
                return

    def _rebuild(self) -> None:
        self.invalidations += 1
        self._build()

    def _build(self) -> None:
        graph, trace = self.graph, self.trace
        with obs.span("vindicate.cut_index") as span:
            self.misses += 1
            self._overlay = dict.fromkeys(sorted(graph.backward_edges()))
            threads = trace.threads
            index_of = {tid: i for i, tid in enumerate(threads)}
            self._thread = thread = [index_of[e.tid] for e in trace.events]
            self._eids = [trace.eids_of(tid) for tid in threads]
            self._index_locks(index_of)
            self._anc = self._forward_pass(len(threads))
            self._desc = self._reverse_pass(len(threads))
            self._generation = graph.generation
            self._journal_pos = graph.journal_position
            span.annotate("events", len(thread))
            span.annotate("threads", len(threads))
            span.annotate("cuts", self.footprint()["closure_entries"])

    def _forward_pass(self, width: int) -> List[Cut]:
        """Ancestor cuts in eid order: an event's cut joins its thread
        predecessor's with each cross-thread forward predecessor's cut
        and local time."""
        graph = self.graph
        thread, local = self._thread, self.trace.local_time
        n = len(thread)
        table: List[Cut] = [()] * n
        previous = [-1] * width
        zero: Cut = (0,) * width
        for eid in range(n):
            t = thread[eid]
            prev = previous[t]
            previous[t] = eid
            cut = table[prev] if prev >= 0 else zero
            preds = graph.predecessor_set(eid)
            if prev >= 0:
                if prev not in preds:
                    raise ValueError(
                        f"constraint graph lacks the program-order edge "
                        f"{prev} -> {eid}; cuts represent reachability only "
                        "in graphs that contain PO")
                if len(preds) == 1:
                    table[eid] = cut
                    continue
            joined: Optional[List[int]] = None
            for pred in preds:
                if pred > eid:
                    continue  # backward: an overlay edge
                tp = thread[pred]
                if tp == t:
                    continue  # implied by program order
                joined = list(map(max, joined or cut, table[pred]))
                if joined[tp] < local[pred]:
                    joined[tp] = local[pred]
            table[eid] = cut if joined is None else tuple(joined)
        return table

    def _reverse_pass(self, width: int) -> List[Cut]:
        """Descendant cuts in reverse eid order, the mirror image of
        :meth:`_forward_pass` (the program-order check is done there)."""
        graph = self.graph
        thread, local = self._thread, self.trace.local_time
        n = len(thread)
        table: List[Cut] = [()] * n
        following = [-1] * width
        none: Cut = (n + 1,) * width
        for eid in range(n - 1, -1, -1):
            t = thread[eid]
            nxt = following[t]
            following[t] = eid
            cut = table[nxt] if nxt >= 0 else none
            succs = graph.successor_set(eid)
            if not succs or (nxt >= 0 and len(succs) == 1):
                table[eid] = cut  # no out-edge, or only the PO one
                continue
            joined: Optional[List[int]] = None
            for succ in succs:
                if succ < eid:
                    continue
                ts = thread[succ]
                if ts == t:
                    continue
                joined = list(map(min, joined or cut, table[succ]))
                if joined[ts] > local[succ]:
                    joined[ts] = local[succ]
            table[eid] = cut if joined is None else tuple(joined)
        return table

    def _index_locks(self, index_of: Dict[Tid, int]) -> None:
        """Per (thread, lock): sorted local times of acquires and releases."""
        local = self.trace.local_time
        acquires: Dict[Tuple[Tid, Target], List[int]] = {}
        releases: Dict[Tuple[Tid, Target], List[int]] = {}
        for e in self.trace.events:
            if e.kind is EventKind.ACQUIRE:
                acquires.setdefault((e.tid, e.target), []).append(local[e.eid])
            elif e.kind is EventKind.RELEASE:
                releases.setdefault((e.tid, e.target), []).append(local[e.eid])
        self._acquires = [(index_of[tid], tid, lock, times)
                          for (tid, lock), times in acquires.items()]
        self._releases = [(index_of[tid], tid, lock, times)
                          for (tid, lock), times in releases.items()]
        self._lock_acquires = {}
        for t, _, lock, times in self._acquires:
            self._lock_acquires.setdefault(lock, []).append((t, times))

    # ------------------------------------------------------------------
    # Cuts
    # ------------------------------------------------------------------
    def ancestor_cut(self, roots: Iterable[int]) -> Cut:
        """The strict ancestor set of ``roots`` as a cut: per thread
        index, the latest local time it holds (0 for none)."""
        self.sync()
        anc, thread, local = self._anc, self._thread, self.trace.local_time
        assert anc is not None
        roots = tuple(roots)
        cut = [0] * len(self._eids)
        for root in roots:
            cut = list(map(max, cut, anc[root]))
            t = thread[root]
            if cut[t] < local[root] - 1:
                cut[t] = local[root] - 1
        pending = list(self._overlay)
        joined = False
        while pending:
            rest = []
            for src, dst in pending:
                if dst in roots or local[dst] <= cut[thread[dst]]:
                    cut = list(map(max, cut, anc[src]))
                    t = thread[src]
                    if cut[t] < local[src]:
                        cut[t] = local[src]
                    joined = True
                else:
                    rest.append((src, dst))
            if len(rest) == len(pending):
                break
            pending = rest
        self._count(joined)
        return tuple(cut)

    def descendant_cut(self, roots: Iterable[int]) -> Cut:
        """The strict descendant set of ``roots`` as a cut: per thread
        index, the earliest local time it holds (``len(trace) + 1`` for
        none)."""
        self.sync()
        desc, thread, local = self._desc, self._thread, self.trace.local_time
        roots = tuple(roots)
        cut = [len(thread) + 1] * len(self._eids)
        for root in roots:
            cut = list(map(min, cut, desc[root]))
            t = thread[root]
            if cut[t] > local[root] + 1:
                cut[t] = local[root] + 1
        pending = list(self._overlay)
        joined = False
        while pending:
            rest = []
            for src, dst in pending:
                if src in roots or local[src] >= cut[thread[src]]:
                    cut = list(map(min, cut, desc[dst]))
                    t = thread[dst]
                    if cut[t] > local[dst]:
                        cut[t] = local[dst]
                    joined = True
                else:
                    rest.append((src, dst))
            if len(rest) == len(pending):
                break
            pending = rest
        self._count(joined)
        return tuple(cut)

    def _count(self, joined: bool) -> None:
        if joined:
            self.misses += 1
        else:
            self.hits += 1

    def holds(self, cut: Cut, eid: int) -> bool:
        """Whether the ancestor cut ``cut`` holds event ``eid``."""
        return self.trace.local_time[eid] <= cut[self._thread[eid]]

    def thread_of(self, eid: int) -> int:
        """The index of event ``eid``'s thread in the cut tuples."""
        return self._thread[eid]

    def cut_events(self, cut: Cut) -> Set[int]:
        """The event ids an ancestor cut holds."""
        return set(sorted(chain.from_iterable(
            eids[:count] for eids, count in zip(self._eids, cut) if count)))

    def last_event(self, cut: Cut, thread: int) -> int:
        """The eid of the latest event ``cut`` holds of the thread with
        index ``thread``, or -1."""
        count = cut[thread]
        return self._eids[thread][count - 1] if count else -1

    def last_acquire(self, cut: Cut, lock: Target) -> int:
        """The eid of the latest acquire of ``lock`` that the ancestor cut
        ``cut`` holds, or -1: one bisection per thread that takes it."""
        latest = -1
        for t, times in self._lock_acquires.get(lock, ()):
            i = bisect_right(times, cut[t])
            if i:
                latest = max(latest, self._eids[t][times[i - 1] - 1])
        return latest

    # ------------------------------------------------------------------
    # Query API (mirrors ConstraintGraph's)
    # ------------------------------------------------------------------
    def ancestors(self, roots: Iterable[int],
                  include_roots: bool = False) -> Set[int]:
        """All nodes from which some root is reachable; see
        :meth:`ConstraintGraph.ancestors`."""
        roots = tuple(roots)
        result = self.cut_events(self.ancestor_cut(roots))
        if include_roots:
            result.update(roots)
        return result

    def descendants(self, roots: Iterable[int],
                    include_roots: bool = False) -> Set[int]:
        """All nodes reachable from ``roots`` forward; see
        :meth:`ConstraintGraph.descendants`."""
        roots = tuple(roots)
        cut = self.descendant_cut(roots)
        result = set(sorted(chain.from_iterable(
            eids[start - 1:] for eids, start in zip(self._eids, cut)
            if start <= len(eids))))
        if include_roots:
            result.update(roots)
        return result

    def ancestors_between(self, roots: Iterable[int], lo: int,
                          hi: int) -> Set[int]:
        """The ancestors of ``roots``, roots included, with eids in
        ``[lo, hi]``: each thread's slice of the cut, found by bisecting
        its eid list."""
        roots = tuple(roots)
        cut = self.ancestor_cut(roots)
        found = [eid for eid in roots if lo <= eid <= hi]
        for eids, count in zip(self._eids, cut):
            start = bisect_left(eids, lo, 0, count)
            found.extend(eids[start:bisect_right(eids, hi, start, count)])
        return set(sorted(found))

    def reaches(self, src: int, dst: int) -> bool:
        """``src ⇝_G dst``: strict reachability (at least one edge).
        ``reaches(x, x)`` holds exactly when ``x`` lies on a cycle."""
        return self.holds(self.ancestor_cut((dst,)), src)

    def latest_acquires(self, src: int) -> Dict[Tuple[Tid, Target], Event]:
        """Per (thread, lock), the latest acquire in ``anc(src) ∪ {src}``."""
        cut = list(self.ancestor_cut((src,)))
        own = self._thread[src]
        cut[own] = max(cut[own], self.trace.local_time[src])
        events = self.trace.events
        found: Dict[Tuple[Tid, Target], Event] = {}
        for t, tid, lock, times in self._acquires:
            i = bisect_right(times, cut[t])
            if i:
                found[(tid, lock)] = events[self._eids[t][times[i - 1] - 1]]
        return found

    def earliest_releases(self, snk: int) -> Dict[Tuple[Tid, Target], Event]:
        """Per (thread, lock), the earliest release in ``desc(snk) ∪ {snk}``."""
        cut = list(self.descendant_cut((snk,)))
        own = self._thread[snk]
        cut[own] = min(cut[own], self.trace.local_time[snk])
        events = self.trace.events
        found: Dict[Tuple[Tid, Target], Event] = {}
        for t, tid, lock, times in self._releases:
            i = bisect_left(times, cut[t])
            if i < len(times):
                found[(tid, lock)] = events[self._eids[t][times[i] - 1]]
        return found

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Counters, suitable for ``Detector.bump`` accumulation."""
        return {
            "reach_hits": self.hits,
            "reach_misses": self.misses,
            "reach_invalidations": self.invalidations,
        }

    def footprint(self) -> Dict[str, int]:
        """Table size: distinct cut tuples, and bytes of the two tables,
        their distinct tuples and the per-event thread index (zero before
        the first build)."""
        if self._anc is None:
            return {"closure_entries": 0, "closure_bytes": 0}
        cuts = {id(c): c for c in chain(self._anc, self._desc)}
        size = sum(map(sys.getsizeof, (self._anc, self._desc, self._thread)))
        return {"closure_entries": len(cuts),
                "closure_bytes": size + sum(map(sys.getsizeof, cuts.values()))}
