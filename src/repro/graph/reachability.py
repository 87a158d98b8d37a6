"""Memoizing bitset reachability engine for the constraint graph: the
test oracle.

Vindication no longer runs on this module: its queries go to
:class:`repro.graph.cuts.CutIndex`, which stores per-thread cuts instead
of per-node closures. :class:`ReachabilityIndex` stays as the reference
the tests check production results against, and for tools that wrap
its ``checkpoint``/``restore``.

VindicateRace's offline phase (Algorithm 1) is dominated by reachability
queries over ``G``: AddConstraints computes the race region
(``ancestors`` of the racing pair) once per fixpoint round, every
worklist edge triggers an ``ancestors``/``descendants`` pair plus a batch
of ``reaches`` checks for candidate LS constraints, and each round ends
with a cycle search over the race region. A fresh BFS per query makes
the whole phase O(queries × (V + E)).

:class:`ReachabilityIndex` memoizes *per-node strict reachability
closures* as bitsets — plain Python ints with bit ``i`` set when event
``i`` is reachable through at least one edge — so that

* repeated queries between graph mutations are answered from cache, and
* a cache miss reuses every already-cached closure it reaches: the BFS
  stops expanding at a node whose closure is known and ORs the whole
  bitset in (one C-speed big-int operation instead of re-walking the
  subgraph).

Closures are *strict* (a node appears in its own closure only when it
lies on a cycle), matching :meth:`ConstraintGraph.descendants` /
:meth:`~ConstraintGraph.ancestors` semantics exactly, and are keyed by
``(node, window)`` so the paper's event-window optimisation
(Section 6.1) gets its own cache entries.

Invalidation is scoped to the race. The closures that were exact when
a race began form a read-only *base*; what the race computes goes into
an *overlay*. :class:`ConstraintGraph` journals every edge add/remove;
on the next query the index ORs each mutated edge's source and sink
into race masks and prunes the overlay alone. A base closure is adopted
into the overlay on first use only if it avoids those masks (see
:meth:`_sync`). Untagging the race's edges restores the base's graph,
so :meth:`restore` promotes the overlay into the base: upkeep per race
is proportional to what the race touched, not to the cache. The
``hits`` / ``misses`` / ``invalidations`` counters are surfaced through
the detector stats.
"""

from __future__ import annotations

import sys
from typing import Dict, Iterable, Optional, Set, Tuple

from repro.graph.constraint_graph import ConstraintGraph

#: One cache per window key (None or an (lo, hi) tuple); inside, plain
#: int node keys — tuple hashing on the per-edge hot path is measurable.
_Window = Optional[Tuple[int, int]]
_Cache = Dict[int, int]

#: Bit positions set in each byte value, for fast mask expansion.
_BYTE_BITS = [tuple(i for i in range(8) if b >> i & 1) for b in range(256)]


def mask_to_set(mask: int) -> Set[int]:
    """Expand a bitset into the set of positions of its set bits.

    Walks the mask bytewise with a per-byte position table — much
    cheaper than repeated ``mask & -mask`` extraction, which pays an
    O(words) big-int operation (and an allocation) per set bit.
    """
    result: Set[int] = set()
    if not mask:
        return result
    base = 0
    byte_bits = _BYTE_BITS
    for byte in mask.to_bytes((mask.bit_length() + 7) // 8, "little"):
        if byte:
            for offset in byte_bits[byte]:
                result.add(base + offset)
        base += 8
    return result


class ReachabilityIndex:
    """Window-aware memoized reachability over one :class:`ConstraintGraph`.

    The test oracle for :class:`repro.graph.cuts.CutIndex`; no
    production path constructs it. The index never mutates the graph; it watches
    :attr:`ConstraintGraph.generation` and catches up with the graph's
    mutation journal on the next query. One index instance is intended
    to be shared across all queries of one vindication run, with each
    race bracketed by :meth:`checkpoint` / :meth:`restore`.
    """

    def __init__(self, graph: ConstraintGraph):
        self.graph = graph
        self._generation = graph.generation
        self._journal_pos = graph.journal_position
        #: The overlay: closures exact for the current graph.
        self._fwd: Dict[_Window, _Cache] = {}
        self._bwd: Dict[_Window, _Cache] = {}
        #: The base: closures exact for the graph as of the last
        #: checkpoint (between races, the pristine graph).
        self._base_fwd: Dict[_Window, _Cache] = {}
        self._base_bwd: Dict[_Window, _Cache] = {}
        #: Sources and sinks of the edges mutated since the base's graph.
        self._src_mask = 0
        self._srcs: Set[int] = set()
        self._snk_mask = 0
        self._snks: Set[int] = set()
        #: Query results by (roots, include_roots, window, forward),
        #: overlay and base; handed out as copies.
        self._results: Dict[Tuple, Set[int]] = {}
        self._base_results: Dict[Tuple, Set[int]] = {}
        #: Queries answered from a cached result or closure.
        self.hits = 0
        #: Closure computations (Tarjan region passes).
        self.misses = 0
        #: Queries that found the graph mutated since the previous one
        #: while anything was cached.
        self.invalidations = 0

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def _sync(self) -> None:
        """Catch up with graph mutations since the last query.

        Adding or removing edge ``src → dst`` can only change a forward
        closure whose node is or contains ``src`` (no other closure
        traverses the edge, and a cycle through it consists of nodes
        that reach ``src``), and a backward closure whose node is or
        contains ``dst``. The overlay drops exactly those; the base is
        checked against the accumulated masks on use (:meth:`_lookup`).
        If the journal overflowed, which mutations happened is unknown,
        so both layers are flushed.
        """
        graph = self.graph
        if self._generation == graph.generation:
            return
        self._generation = graph.generation
        entries, self._journal_pos = graph.mutations_since(self._journal_pos)
        if (self._fwd or self._bwd or self._results or self._base_fwd
                or self._base_bwd or self._base_results):
            self.invalidations += 1
        self._results.clear()
        if entries is None:
            for caches in (self._fwd, self._bwd, self._base_fwd,
                           self._base_bwd, self._base_results):
                caches.clear()
            return
        srcs = {src for _, src, _ in entries}
        snks = {snk for _, _, snk in entries}
        # Distinct bits, so the sum is the union.
        src_mask = sum(1 << src for src in srcs)
        snk_mask = sum(1 << snk for snk in snks)
        self._prune(self._fwd, src_mask, srcs)
        self._prune(self._bwd, snk_mask, snks)
        self._src_mask |= src_mask
        self._snk_mask |= snk_mask
        self._srcs |= srcs
        self._snks |= snks

    @staticmethod
    def _prune(caches: Dict[_Window, _Cache], mask: int,
               nodes: Set[int]) -> None:
        """Drop every closure whose node is in ``nodes`` or whose bitset
        intersects ``mask``; the rest never crossed those edges."""
        for cache in caches.values():
            dead = [node for node, closure in cache.items()
                    if closure & mask or node in nodes]
            for node in dead:
                del cache[node]

    def _lookup(self, forward: bool, window: _Window):
        """The overlay cache for ``(forward, window)`` and a ``get`` that
        falls back to the base, adopting a base closure when neither its
        node nor its bitset holds a mutated source (sink, backward): the
        :meth:`_sync` lemma over every mutation since the base's graph."""
        cache = (self._fwd if forward else self._bwd).setdefault(window, {})
        base = (self._base_fwd if forward else self._base_bwd).get(window)
        if not base:
            return cache, cache.get
        mask, nodes = ((self._src_mask, self._srcs) if forward
                       else (self._snk_mask, self._snks))

        def lookup(node: int) -> Optional[int]:
            found = cache.get(node)
            if found is None:
                found = base.get(node)
                if found is not None:
                    if node in nodes or found & mask:
                        return None
                    cache[node] = found
            return found
        return cache, lookup

    # ------------------------------------------------------------------
    # Core closure computation
    # ------------------------------------------------------------------
    def _closure(self, node: int, forward: bool,
                 window: Optional[Tuple[int, int]]) -> int:
        """The strict reachability closure of ``node`` as a bitset.

        Matches :meth:`ConstraintGraph._bfs` seeded with one root: the
        root expands regardless of the window, discovered nodes are
        filtered by it, and the root's own bit is set only when an edge
        inside the window leads back to it. A miss walks the region,
        *absorbing* every cached closure it meets: the whole bitset is
        ORed in and the subtree never expanded. Absorption is exact — a
        cached closure covers everything reachable from what it contains.
        """
        cache, lookup = self._lookup(forward, window)
        cached = lookup(node)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        adj = (self.graph.successor_set if forward
               else self.graph.predecessor_set)
        if window is None:
            return self._closure_region(node, adj, cache, lookup)
        # Windowed misses cache only the root: windows grow as
        # constraints are added, so a region pass would rarely amortise.
        lo, hi = window
        closure = 0
        stack = [node]
        while stack:
            for w in adj(stack.pop()):
                if w < lo or w > hi:
                    continue
                bit = 1 << w
                if closure & bit:
                    # Already discovered (or covered by an absorbed
                    # closure, which also covers everything below it).
                    continue
                sub = lookup(w)
                if sub is not None:
                    closure |= bit | sub
                else:
                    closure |= bit
                    stack.append(w)
        cache[node] = closure
        return closure

    def _closure_region(self, node: int, adj, cache: _Cache, lookup) -> int:
        """Unwindowed miss path: one iterative Tarjan SCC pass over the
        region reachable from ``node`` caches the closure of *every*
        region node, in reverse topological order of the condensation
        (each closure ORs its out-neighbours' final closures). That
        suits AddConstraints' worklist: many roots in one race region."""
        index: Dict[int, int] = {node: 0}
        low: Dict[int, int] = {node: 0}
        counter = 1
        on_stack = {node}
        scc_stack = [node]
        call_stack = [(node, iter(adj(node)))]
        while call_stack:
            v, it = call_stack[-1]
            advanced = False
            for w in it:
                if w not in index:
                    if lookup(w) is not None:
                        # Already closed in an earlier pass; its closure
                        # is final and cannot share a cycle with v (or
                        # it would have been on v's stack back then).
                        continue
                    index[w] = low[w] = counter
                    counter += 1
                    on_stack.add(w)
                    scc_stack.append(w)
                    call_stack.append((w, iter(adj(w))))
                    advanced = True
                    break
                if w in on_stack and index[w] < low[v]:
                    low[v] = index[w]
            if advanced:
                continue
            call_stack.pop()
            if call_stack:
                parent = call_stack[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
            if low[v] == index[v]:
                # ``v`` roots an SCC: pop it and finalise its closure.
                members = []
                while True:
                    w = scc_stack.pop()
                    on_stack.discard(w)
                    members.append(w)
                    if w == v:
                        break
                scc_mask = 0
                if len(members) > 1:
                    # Every member lies on a cycle: strict closures
                    # include the whole component.
                    for m in members:
                        scc_mask |= 1 << m
                member_set = set(members)
                closure = scc_mask
                for m in members:
                    for w in adj(m):
                        if w in member_set:
                            continue
                        # Cross-SCC edges point at finished components
                        # (or adopted closures), all in the overlay.
                        closure |= (1 << w) | cache[w]
                for m in members:
                    cache[m] = closure
        return cache[node]

    def _union(self, roots: Iterable[int], forward: bool,
               window: Optional[Tuple[int, int]]) -> int:
        mask = 0
        for root in roots:
            mask |= self._closure(root, forward, window)
        return mask

    # ------------------------------------------------------------------
    # Query API (mirrors ConstraintGraph's)
    # ------------------------------------------------------------------
    def _query(self, roots: Iterable[int], forward: bool,
               include_roots: bool,
               within: Optional[Tuple[int, int]]) -> Set[int]:
        self._sync()
        roots = tuple(roots)
        key = (roots, include_roots, within, forward)
        cached = self._results.get(key)
        if cached is None and not self._srcs:
            # No mutation since the base's graph: its results are exact.
            cached = self._base_results.get(key)
        if cached is not None:
            self.hits += 1
            # Callers own (and mutate) the returned set.
            return cached.copy()
        result = mask_to_set(self._union(roots, forward, within))
        if include_roots:
            result.update(roots)
        self._results[key] = result
        return result.copy()

    def descendants(self, roots: Iterable[int],
                    include_roots: bool = False,
                    within: Optional[Tuple[int, int]] = None) -> Set[int]:
        """All nodes reachable from ``roots`` forward; see
        :meth:`ConstraintGraph.descendants`."""
        return self._query(roots, True, include_roots, within)

    def ancestors(self, roots: Iterable[int],
                  include_roots: bool = False,
                  within: Optional[Tuple[int, int]] = None) -> Set[int]:
        """All nodes from which some root is reachable; see
        :meth:`ConstraintGraph.ancestors`."""
        return self._query(roots, False, include_roots, within)

    def descendants_mask(self, roots: Iterable[int],
                         within: Optional[Tuple[int, int]] = None) -> int:
        """Strict forward closure of ``roots`` as a raw bitset (no set
        materialisation — for membership-test-only callers)."""
        self._sync()
        return self._union(roots, True, within)

    def ancestors_mask(self, roots: Iterable[int],
                       within: Optional[Tuple[int, int]] = None) -> int:
        """Strict backward closure of ``roots`` as a raw bitset."""
        self._sync()
        return self._union(roots, False, within)

    def reaches(self, src: int, dst: int) -> bool:
        """``src ⇝_G dst``: strict reachability (at least one edge).

        ``reaches(x, x)`` is True exactly when ``x`` lies on a cycle,
        because the strict closure contains its own root only then.
        """
        self._sync()
        return bool(self._closure(src, True, None) & (1 << dst))

    # ------------------------------------------------------------------
    # Checkpointing and state transfer
    # ------------------------------------------------------------------
    def _promote(self) -> None:
        """Fold the overlay into the base and clear the race masks (the
        current graph must be the one the base is exact for)."""
        for overlays, bases in ((self._fwd, self._base_fwd),
                                (self._bwd, self._base_bwd)):
            for window, cache in overlays.items():
                bases.setdefault(window, {}).update(cache)
            overlays.clear()
        self._base_results.update(self._results)
        self._results.clear()
        self._src_mask = self._snk_mask = 0
        self._srcs = set()
        self._snks = set()

    def checkpoint(self) -> int:
        """Open a race: the current closures become the read-only base.

        :func:`repro.vindicate.vindicator.vindicate_race` brackets each
        race's tagged-edge churn with this and :meth:`restore`. Nothing
        is copied; between races the overlay is empty, so this is O(1).
        Mutations made outside any bracket cost one prune of the base
        here. Returns an opaque token; one race is open at a time.
        """
        self._sync()
        if self._srcs:
            self._prune(self._base_fwd, self._src_mask, self._srcs)
            self._prune(self._base_bwd, self._snk_mask, self._snks)
            self._base_results.clear()
        self._promote()
        return self._generation

    def restore(self, cp: int) -> None:
        """Close the race opened by :meth:`checkpoint`.

        Only sound when the graph's edge set is back to what it was at
        checkpoint time (the vindication loop removes every edge it
        added in a ``finally``). The base is then exact again, and every
        overlay closure that survived the removals' prune is promoted
        into it, which is how the cache warms up across races. Cost:
        O(overlay), never O(cache). The counters keep accumulating.
        """
        self._sync()
        self._promote()

    def export_state(self) -> Dict[str, Dict[int, int]]:
        """Serialize the unwindowed closure caches.

        Returns a picklable ``{"fwd": {node: bitset}, "bwd": ...}``
        payload of every unwindowed closure exact for the current graph.
        Windowed caches and result sets are race-specific and left out.
        """
        self._sync()
        state = {}
        for name, forward, bases in (("fwd", True, self._base_fwd),
                                     ("bwd", False, self._base_bwd)):
            cache, lookup = self._lookup(forward, None)
            for node in bases.get(None, ()):
                lookup(node)
            state[name] = dict(cache)
        return state

    def import_state(self, state: Dict[str, Dict[int, int]]) -> None:
        """Adopt closures exported by :meth:`export_state`; the graph
        must have the exporter's edge set (a ``ConstraintGraph.copy()``
        of the exporter's graph, say)."""
        self._sync()
        if state.get("fwd"):
            self._fwd.setdefault(None, {}).update(state["fwd"])
        if state.get("bwd"):
            self._bwd.setdefault(None, {}).update(state["bwd"])

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Cache counters, suitable for ``Detector.bump`` accumulation."""
        return {
            "reach_hits": self.hits,
            "reach_misses": self.misses,
            "reach_invalidations": self.invalidations,
        }

    def footprint(self) -> Dict[str, int]:
        """Closure-cache size: entries in base and overlay, and bytes of
        the distinct bitsets they hold (an SCC's members, and an
        adopted closure's two entries, share one int). O(cache)."""
        caches = [cache for side in (self._base_fwd, self._base_bwd,
                                     self._fwd, self._bwd)
                  for cache in side.values()]
        closures = {id(c): c for cache in caches for c in cache.values()}
        return {"closure_entries": sum(map(len, caches)),
                "closure_bytes": sum(map(sys.getsizeof, closures.values()))}
