"""Reachability in the constraint graph as per-thread cuts.

VindicateRace (Algorithm 1) asks ``G`` for the ancestors and
descendants of event sets and for ``reaches`` probes. ``G`` contains
every program-order edge ``prev(e) → e``: the
:class:`~repro.graph.program_order.ProgramOrderGraph` that the epoch DC
detector builds (for the CLI and serve sessions) by construction, as
it reads PO from the trace; a plain
:class:`~repro.graph.constraint_graph.ConstraintGraph` because the
reference DC detector stores one per event (checked at build; a graph
without PO is refused). So a strict ancestor set is closed downward in
program order: it is a *cut*, one prefix per thread, stored as the
latest 1-based local time it holds per thread (0 for none). A
descendant set is closed upward: one suffix per thread, stored as the
earliest local time it holds (``len(trace) + 1`` for none). A cut has
one slot per thread index, the trace's own numbering (``trace.tix``,
``trace.thread_eids``): a fork/join target that never runs keeps its
slot, 0 in every ancestor cut and ``len(trace) + 1`` in every
descendant cut.

:class:`CutIndex` keeps two cut tables over the trace, built once by
one forward and one reverse pass over the graph's *forward* cross-thread
edges (``src < dst``, different threads). The forward-edge graph is
acyclic, so an event's own thread contributes exactly its program-order
prefix (suffix) and the tables only have to carry the other threads.
An event's cut is its thread neighbour's unless it is a *junction*: the
sink of a forward cross-thread edge (forward pass) or its source
(reverse pass). So the passes visit only the junctions, in eid order
and in reverse, and keep per thread the junctions' local times and
cuts; any other event's cut is that of the nearest earlier junction of
its thread (nearest later one for descendant cuts), found by bisection.

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
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro import obs
from repro.core.events import CODE_ACQUIRE, CODE_RELEASE
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
        #: Per thread index: the local times of the thread's forward-pass
        #: junctions, ascending, and their strict ancestor cuts in the
        #: forward-edge graph (own-thread entry excepted); None until
        #: built.
        self._anc_at: Optional[List[List[int]]] = None
        self._anc_cuts: List[List[Cut]] = []
        #: Per thread index: the *negated* local times of the thread's
        #: reverse-pass junctions, ascending, and their descendant cuts.
        self._desc_at: List[List[int]] = []
        self._desc_cuts: List[List[Cut]] = []
        self._zero: Cut = ()
        self._none: Cut = ()
        #: ``(thread index, lock index, sorted local times)`` of the
        #: thread's acquires (releases) of the lock.
        self._acquires: List[Tuple[int, int, List[int]]] = []
        self._releases: List[Tuple[int, int, List[int]]] = []
        #: Per lock index: ``(thread index, sorted local times)`` of its
        #: acquires.
        self._lock_acquires: Dict[int, List[Tuple[int, List[int]]]] = {}
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
        if self._anc_at is None:
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
            width = len(trace.tid_names)
            self._zero = (0,) * width
            self._none = (len(trace) + 1,) * width
            self._index_locks()
            if not graph.implicit_program_order:
                self._check_program_order()
            into, out_of = self._cross_edges()
            self._forward_pass(into, width)
            self._reverse_pass(out_of, width)
            self._generation = graph.generation
            self._journal_pos = graph.journal_position
            span.annotate("events", len(trace))
            span.annotate("threads", width)
            span.annotate("junctions", len(into.keys() | out_of.keys()))
            span.annotate("cuts", self.footprint()["closure_entries"])

    def _check_program_order(self) -> None:
        """Refuse a graph that stores its edges but lacks a PO edge."""
        has_edge = self.graph.has_edge
        for eids in self.trace.thread_eids:
            for prev, eid in zip(eids, eids[1:]):
                if not has_edge(prev, eid):
                    raise ValueError(
                        f"constraint graph lacks the program-order edge "
                        f"{prev} -> {eid}; cuts represent reachability only "
                        "in graphs that contain PO")

    def _cross_edges(self) -> Tuple[Dict[int, List[int]],
                                    Dict[int, List[int]]]:
        """The graph's forward edges between threads, grouped by sink
        and by source. Their sinks are the forward pass's junctions and
        their sources the reverse pass's: every other event's cut is its
        thread neighbour's."""
        tix = self.trace.tix
        into: Dict[int, List[int]] = {}
        out_of: Dict[int, List[int]] = {}
        for src, dst in self.graph.stored_edges():
            if src < dst and tix[src] != tix[dst]:
                into.setdefault(dst, []).append(src)
                out_of.setdefault(src, []).append(dst)
        return into, out_of

    def _forward_pass(self, into: Dict[int, List[int]], width: int) -> None:
        """Ancestor cuts of the junctions in eid order: a junction's cut
        joins its thread predecessor's with each cross-thread forward
        predecessor's cut and local time."""
        local, tix = self.trace.local_time, self.trace.tix
        self._anc_at = at = [[] for _ in range(width)]
        self._anc_cuts = cuts = [[] for _ in range(width)]
        anc_at = self._anc_at_time
        for eid in sorted(into):
            t = tix[eid]
            preds = [(tix[pred], local[pred]) for pred in into[eid]]
            joined = list(map(max, anc_at(t, local[eid] - 1),
                              *[anc_at(tp, time) for tp, time in preds]))
            for tp, time in preds:
                if joined[tp] < time:
                    joined[tp] = time
            at[t].append(local[eid])
            cuts[t].append(tuple(joined))

    def _reverse_pass(self, out_of: Dict[int, List[int]], width: int) -> None:
        """Descendant cuts of the junctions in reverse eid order, the
        mirror image of :meth:`_forward_pass`."""
        local, tix = self.trace.local_time, self.trace.tix
        self._desc_at = at = [[] for _ in range(width)]
        self._desc_cuts = cuts = [[] for _ in range(width)]
        desc_at = self._desc_at_time
        for eid in sorted(out_of, reverse=True):
            t = tix[eid]
            succs = [(tix[succ], local[succ]) for succ in out_of[eid]]
            joined = list(map(min, desc_at(t, local[eid] + 1),
                              *[desc_at(ts, time) for ts, time in succs]))
            for ts, time in succs:
                if joined[ts] > time:
                    joined[ts] = time
            at[t].append(-local[eid])
            cuts[t].append(tuple(joined))

    def _anc_at_time(self, t: int, time: int) -> Cut:
        """The table ancestor cut of thread ``t``'s event at local time
        ``time``: its latest junction's at or before it."""
        i = bisect_right(self._anc_at[t], time)
        return self._anc_cuts[t][i - 1] if i else self._zero

    def _desc_at_time(self, t: int, time: int) -> Cut:
        """The table descendant cut of thread ``t``'s event at local
        time ``time``: its earliest junction's at or after it."""
        i = bisect_right(self._desc_at[t], -time)
        return self._desc_cuts[t][i - 1] if i else self._none

    def _anc(self, eid: int) -> Cut:
        return self._anc_at_time(self.trace.tix[eid],
                                 self.trace.local_time[eid])

    def _desc(self, eid: int) -> Cut:
        return self._desc_at_time(self.trace.tix[eid],
                                  self.trace.local_time[eid])

    def _index_locks(self) -> None:
        """Per (thread, lock): sorted local times of acquires and
        releases, from the trace's columns."""
        trace = self.trace
        codes, tix, tgt = trace.codes, trace.tix, trace.tgt
        local = trace.local_time
        acquires: Dict[Tuple[int, int], List[int]] = {}
        releases: Dict[Tuple[int, int], List[int]] = {}
        for eid, code in enumerate(codes):
            if code == CODE_ACQUIRE:
                acquires.setdefault((tix[eid], tgt[eid]), []).append(
                    local[eid])
            elif code == CODE_RELEASE:
                releases.setdefault((tix[eid], tgt[eid]), []).append(
                    local[eid])
        self._acquires = [(t, lock, times)
                          for (t, lock), times in acquires.items()]
        self._releases = [(t, lock, times)
                          for (t, lock), times in releases.items()]
        self._lock_acquires = {}
        for t, lock, times in self._acquires:
            self._lock_acquires.setdefault(lock, []).append((t, times))

    # ------------------------------------------------------------------
    # Cuts
    # ------------------------------------------------------------------
    def ancestor_cut(self, roots: Iterable[int]) -> Cut:
        """The strict ancestor set of ``roots`` as a cut: per thread
        index, the latest local time it holds (0 for none)."""
        self.sync()
        anc, thread, local = self._anc, self.trace.tix, self.trace.local_time
        roots = tuple(roots)
        cut = list(self._zero)
        for root in roots:
            cut = list(map(max, cut, anc(root)))
            t = thread[root]
            if cut[t] < local[root] - 1:
                cut[t] = local[root] - 1
        pending = list(self._overlay)
        joined = False
        while pending:
            rest = []
            for src, dst in pending:
                if dst in roots or local[dst] <= cut[thread[dst]]:
                    cut = list(map(max, cut, anc(src)))
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
        desc, thread, local = self._desc, self.trace.tix, self.trace.local_time
        roots = tuple(roots)
        cut = list(self._none)
        for root in roots:
            cut = list(map(min, cut, desc(root)))
            t = thread[root]
            if cut[t] > local[root] + 1:
                cut[t] = local[root] + 1
        pending = list(self._overlay)
        joined = False
        while pending:
            rest = []
            for src, dst in pending:
                if src in roots or local[src] >= cut[thread[src]]:
                    cut = list(map(min, cut, desc(dst)))
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
        trace = self.trace
        return trace.local_time[eid] <= cut[trace.tix[eid]]

    def cut_events(self, cut: Cut) -> Set[int]:
        """The event ids an ancestor cut holds."""
        return set(sorted(chain.from_iterable(
            eids[:count] for eids, count in zip(self.trace.thread_eids, cut)
            if count)))

    def last_event(self, cut: Cut, thread: int) -> int:
        """The eid of the latest event ``cut`` holds of the thread with
        index ``thread``, or -1."""
        count = cut[thread]
        return self.trace.thread_eids[thread][count - 1] if count else -1

    def last_acquire(self, cut: Cut, lock: int) -> int:
        """The eid of the latest acquire of the lock with index ``lock``
        that the ancestor cut ``cut`` holds, or -1: one bisection per
        thread that takes it."""
        thread_eids = self.trace.thread_eids
        latest = -1
        for t, times in self._lock_acquires.get(lock, ()):
            i = bisect_right(times, cut[t])
            if i:
                latest = max(latest, thread_eids[t][times[i - 1] - 1])
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
            eids[start - 1:] for eids, start
            in zip(self.trace.thread_eids, cut)
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
        for eids, count in zip(self.trace.thread_eids, cut):
            start = bisect_left(eids, lo, 0, count)
            found.extend(eids[start:bisect_right(eids, hi, start, count)])
        return set(sorted(found))

    def reaches(self, src: int, dst: int) -> bool:
        """``src ⇝_G dst``: strict reachability (at least one edge).
        ``reaches(x, x)`` holds exactly when ``x`` lies on a cycle."""
        return self.holds(self.ancestor_cut((dst,)), src)

    def latest_acquires(self, src: int) -> Dict[Tuple[int, int], int]:
        """Per (thread index, lock index), the eid of the latest acquire
        in ``anc(src) ∪ {src}``."""
        trace = self.trace
        cut = list(self.ancestor_cut((src,)))
        own = trace.tix[src]
        cut[own] = max(cut[own], trace.local_time[src])
        thread_eids = trace.thread_eids
        found: Dict[Tuple[int, int], int] = {}
        for t, lock, times in self._acquires:
            i = bisect_right(times, cut[t])
            if i:
                found[(t, lock)] = thread_eids[t][times[i - 1] - 1]
        return found

    def earliest_releases(self, snk: int) -> Dict[Tuple[int, int], int]:
        """Per (thread index, lock index), the eid of the earliest
        release in ``desc(snk) ∪ {snk}``."""
        trace = self.trace
        cut = list(self.descendant_cut((snk,)))
        own = trace.tix[snk]
        cut[own] = min(cut[own], trace.local_time[snk])
        thread_eids = trace.thread_eids
        found: Dict[Tuple[int, int], int] = {}
        for t, lock, times in self._releases:
            i = bisect_left(times, cut[t])
            if i < len(times):
                found[(t, lock)] = thread_eids[t][times[i] - 1]
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
        """Table size: the junctions' cut tuples, and bytes of the
        per-thread junction lists and their tuples (zero before the
        first build)."""
        if self._anc_at is None:
            return {"closure_entries": 0, "closure_bytes": 0}
        lists = [*self._anc_at, *self._anc_cuts, *self._desc_at,
                 *self._desc_cuts]
        cuts = [*chain.from_iterable(self._anc_cuts),
                *chain.from_iterable(self._desc_cuts)]
        size = sum(map(sys.getsizeof, chain(lists, cuts)))
        return {"closure_entries": len(cuts), "closure_bytes": size}
