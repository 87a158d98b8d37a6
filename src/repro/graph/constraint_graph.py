"""The constraint graph ``G`` (Section 5.1).

Nodes are trace events (identified by eid); edges are ordering constraints
on any correctly reordered trace. DC analysis populates the initial graph
so that reachability coincides with DC ordering:

* program-order edges chain each thread's events;
* rule (a) edges run from the release of a critical section to a later
  conflicting access in another critical section on the same lock;
* rule (b) edges order releases of the same lock;
* hard edges cover fork/join, volatile ordering, and forced ordering
  after a detected race.

VindicateRace then temporarily adds *consecutive-event* and
*lock-semantics* edges; those are tracked by tag so they can be removed
afterwards, leaving ``G`` pristine for the next race (Section 6.1,
"VindicateRace").

:class:`ConstraintGraph` stores every edge, program order included: the
reference DC detector builds it, one ``prev(e) → e`` edge per event.
The epoch DC detector, which the CLI and serve sessions run, builds the
subclass :class:`~repro.graph.program_order.ProgramOrderGraph`, which
reads program order from the trace and stores only the other edges. Every
query below is written against :meth:`successor_set` /
:meth:`predecessor_set`, so it serves both.

Adjacency is kept in both directions because AddConstraints queries
direct predecessors of the racing events, and reachability is needed both
forward (descendants) and backward (ancestors). Since event ids are dense
trace positions, adjacency is an event-id-indexed array of per-node sets:
``has_edge`` and ``remove_edge`` are O(1), which matters under
VindicateRace's add/remove-tagged-edges churn (one batch of temporary
edges per vindicated race). A set's iteration order depends on its
add/remove history, so every read whose order matters (the cycle search
here, the consecutive-edge loops of AddConstraints) goes in ascending
eid order.

The graph also keeps the set of its *backward* edges (``dst < src``).
Every cycle has one, so the cycle search only has to look between the
lowest backward target and the highest backward source
(:meth:`ConstraintGraph.backward_span`). The DC detectors only add
forward edges, so between races that set is empty and during a race it
holds only the race's own constraints.

Every successful mutation bumps :attr:`ConstraintGraph.generation` and
is recorded in a bounded mutation journal; :class:`~repro.graph.cuts.CutIndex`
uses the generation to detect staleness and the journal to learn which
edges a race added and removed (the test-oracle
:class:`~repro.graph.reachability.ReachabilityIndex` uses it the same
way to invalidate only the closures a mutation can affect).
"""

from __future__ import annotations

from collections import deque
from typing import (Callable, Collection, FrozenSet, Iterable, Iterator,
                    List, Optional, Sequence, Set, Tuple)

Edge = Tuple[int, int]

#: Shared immutable empty adjacency for out-of-range nodes.
_EMPTY: FrozenSet[int] = frozenset()


class ConstraintGraph:
    """A directed graph over dense event ids with removable edges."""

    #: Journal entries kept before consumers fall back to a full flush.
    _JOURNAL_LIMIT = 4096

    #: Whether program-order edges are implied by the trace rather than
    #: stored (see :class:`~repro.graph.program_order.ProgramOrderGraph`).
    implicit_program_order = False

    def __init__(self, num_events: int = 0):
        self._succ: List[Set[int]] = [set() for _ in range(num_events)]
        self._pred: List[Set[int]] = [set() for _ in range(num_events)]
        self.num_events = num_events
        self._start_bookkeeping()

    def _start_bookkeeping(self) -> None:
        self._edge_count = 0
        #: The edges with ``dst < src``; see :meth:`backward_span`.
        self._backward: Set[Edge] = set()
        #: Bumped on every successful ``add_edge``/``remove_edge``; lets
        #: reachability caches detect staleness without subscriptions.
        self.generation = 0
        #: Bounded log of successful mutations as ``(is_add, src, dst)``;
        #: lets reachability caches invalidate selectively (see
        #: :meth:`mutations_since`). ``_journal_base`` is the absolute
        #: position of ``_journal[0]``.
        self._journal: List[Tuple[bool, int, int]] = []
        self._journal_base = 0

    def _grow(self, eid: int) -> None:
        if eid >= self.num_events:
            for _ in range(self.num_events, eid + 1):
                self._succ.append(set())
                self._pred.append(set())
            self.num_events = eid + 1

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_edge(self, src: int, dst: int) -> bool:
        """Add edge ``src -> dst``. Returns False if already present."""
        if src == dst:
            raise ValueError(f"self edge on event {src}")
        self._grow(src if src > dst else dst)
        succ = self._succ[src]
        if dst in succ:
            return False
        succ.add(dst)
        self._pred[dst].add(src)
        self._record(True, src, dst)
        return True

    def remove_edge(self, src: int, dst: int) -> None:
        """Remove an edge previously added with :meth:`add_edge`."""
        if src >= self.num_events or dst not in self._succ[src]:
            return
        self._succ[src].discard(dst)
        self._pred[dst].discard(src)
        self._record(False, src, dst)

    def _record(self, is_add: bool, src: int, dst: int) -> None:
        """Bookkeeping for one stored edge added or removed: the edge
        count, the backward set, the generation and the journal."""
        if dst < src:
            if is_add:
                self._backward.add((src, dst))
            else:
                self._backward.discard((src, dst))
        self._edge_count += 1 if is_add else -1
        self.generation += 1
        journal = self._journal
        journal.append((is_add, src, dst))
        if len(journal) > self._JOURNAL_LIMIT:
            # Discard the older half of the backlog; consumers behind it
            # do a full flush, consumers within the newer half lose
            # nothing.
            drop = len(journal) // 2
            self._journal_base += drop
            del journal[:drop]

    @property
    def journal_position(self) -> int:
        """Absolute position just past the latest journal entry."""
        return self._journal_base + len(self._journal)

    def mutations_since(self, pos: int):
        """Journal entries from absolute position ``pos`` onward, with
        the new position: ``(entries, new_pos)``. ``entries`` is None
        when the backlog has been discarded (the caller must treat every
        cached derivation as stale)."""
        start = pos - self._journal_base
        if start < 0:
            return None, self.journal_position
        return self._journal[start:], self.journal_position

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def has_edge(self, src: int, dst: int) -> bool:
        return src < self.num_events and dst in self._succ[src]

    def successors(self, node: int) -> List[int]:
        if node >= self.num_events or node < 0:
            return []
        return list(self._succ[node])

    def predecessors(self, node: int) -> List[int]:
        if node >= self.num_events or node < 0:
            return []
        return list(self._pred[node])

    def successor_set(self, node: int):
        """The successor set itself (read-only; O(1), no copy)."""
        if 0 <= node < self.num_events:
            return self._succ[node]
        return _EMPTY

    def predecessor_set(self, node: int):
        """The predecessor set itself (read-only; O(1), no copy)."""
        if 0 <= node < self.num_events:
            return self._pred[node]
        return _EMPTY

    def edges(self) -> Iterator[Edge]:
        for src, succ in enumerate(self._succ):
            for dst in succ:
                yield (src, dst)

    def stored_edges(self) -> Iterator[Edge]:
        """The edges held in memory (every edge, here)."""
        return self.edges()

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def backward_edges(self) -> FrozenSet[Edge]:
        """The edges ``src -> dst`` with ``dst < src``."""
        return frozenset(self._backward)

    def backward_span(self) -> Optional[Tuple[int, int]]:
        """``(lowest backward dst, highest backward src)``, or None when
        every edge points forward. Every cycle lies inside this span:
        its highest node's out-edge and its lowest node's in-edge both
        point backward (there are no self edges). O(backward edges)."""
        if not self._backward:
            return None
        return (min(dst for _, dst in self._backward),
                max(src for src, _ in self._backward))

    def stats(self) -> "dict[str, int]":
        """Structure counters for the metrics registry / reports:
        ``edges`` counts every edge, program order included, and
        ``stored_edges`` the ones held in memory."""
        return {
            "nodes": self.num_events,
            "edges": self.edge_count,
            "stored_edges": self._edge_count,
            "generation": self.generation,
        }

    # ------------------------------------------------------------------
    # Reachability (direct BFS; see repro.graph.cuts for the index
    # used by the vindication hot paths)
    # ------------------------------------------------------------------
    def descendants(self, roots: Iterable[int],
                    include_roots: bool = False,
                    within: Optional[Tuple[int, int]] = None) -> Set[int]:
        """All nodes reachable from ``roots`` by following edges forward.

        With ``within=(lo, hi)``, traversal is restricted to nodes whose
        event id lies in the window (the paper's Lamport-timestamp window
        optimisation for AddConstraints)."""
        return self._bfs(roots, self.successor_set, include_roots, within)

    def ancestors(self, roots: Iterable[int],
                  include_roots: bool = False,
                  within: Optional[Tuple[int, int]] = None) -> Set[int]:
        """All nodes from which some root is reachable (``e ⇝_G root``)."""
        return self._bfs(roots, self.predecessor_set, include_roots, within)

    def _bfs(self, roots: Iterable[int],
             adjacency: Callable[[int], Collection[int]],
             include_roots: bool,
             within: Optional[Tuple[int, int]] = None) -> Set[int]:
        roots = list(roots)
        n = self.num_events
        seen: Set[int] = set()
        queue = deque(roots)
        while queue:
            node = queue.popleft()
            if node >= n or node < 0:
                continue
            for nxt in adjacency(node):
                if nxt in seen:
                    continue
                if within is not None and not within[0] <= nxt <= within[1]:
                    continue
                seen.add(nxt)
                queue.append(nxt)
        # Strict reachability: a root belongs to the result only if it was
        # re-reached through an edge (i.e. it lies on a cycle) — unless the
        # caller asked for reflexive reachability.
        if include_roots:
            seen.update(roots)
        return seen

    def reaches(self, src: int, dst: int) -> bool:
        """``src ⇝_G dst``: strict reachability (at least one edge)."""
        if src >= self.num_events or src < 0:
            return False
        if src == dst:
            # A node reaches itself only through a cycle.
            return self._on_cycle(src)
        seen = {src}
        queue = deque([src])
        n = self.num_events
        while queue:
            node = queue.popleft()
            for nxt in self.successor_set(node):
                if nxt == dst:
                    return True
                if nxt not in seen and nxt < n:
                    seen.add(nxt)
                    queue.append(nxt)
        return False

    def _on_cycle(self, node: int) -> bool:
        seen: Set[int] = set()
        queue = deque(self.successor_set(node))
        while queue:
            cur = queue.popleft()
            if cur == node:
                return True
            if cur in seen:
                continue
            seen.add(cur)
            queue.extend(self.successor_set(cur))
        return False

    def _ordered_successors(self, node: int) -> Sequence[int]:
        """The successors of ``node`` in ascending eid order."""
        return sorted(self.successor_set(node))

    def find_cycle_reaching(self, targets: Set[int],
                            region: Optional[Set[int]] = None) -> Optional[List[int]]:
        """Find a cycle among nodes that reach one of ``targets``
        (Algorithm 1, lines 20–21: a cycle is only disqualifying when it
        constrains the racing events). Returns the cycle's nodes or None.

        Implemented as an iterative DFS with colouring over the subgraph
        induced by the ancestors of ``targets`` (targets included) that
        lie in :meth:`backward_span`; with no backward edge there is no
        cycle and no search. Roots and successors are visited in
        ascending eid order, so the cycle found depends only on the
        edge set, not on the order the edges were added and removed in. ``region`` optionally supplies the ancestor
        set precomputed (e.g. by
        :meth:`~repro.graph.cuts.CutIndex.ancestors_between`).
        """
        span = self.backward_span()
        if span is None:
            return None
        lo, hi = span
        if region is None:
            region = self.ancestors(targets, include_roots=True)
        region = {node for node in region if lo <= node <= hi}
        region.update(node for node in targets if lo <= node <= hi)
        WHITE, GRAY, BLACK = 0, 1, 2
        color: "dict[int, int]" = {}
        parent: "dict[int, int]" = {}
        for root in sorted(region):
            if color.get(root, WHITE) != WHITE:
                continue
            stack: List[Tuple[int, Iterator[int]]] = [
                (root, iter(self._ordered_successors(root)))]
            color[root] = GRAY
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    if nxt not in region:
                        continue
                    c = color.get(nxt, WHITE)
                    if c == GRAY:
                        # Found a back edge: reconstruct the cycle.
                        cycle = [nxt, node]
                        cur = node
                        while cur != nxt and cur in parent:
                            cur = parent[cur]
                            cycle.append(cur)
                        return cycle
                    if c == WHITE:
                        color[nxt] = GRAY
                        parent[nxt] = node
                        stack.append(
                            (nxt, iter(self._ordered_successors(nxt))))
                        advanced = True
                        break
                if not advanced:
                    color[node] = BLACK
                    stack.pop()
        return None

    def copy(self) -> "ConstraintGraph":
        clone = ConstraintGraph(self.num_events)
        clone._succ = [set(s) for s in self._succ]
        clone._pred = [set(p) for p in self._pred]
        clone._edge_count = self._edge_count
        clone._backward = set(self._backward)
        return clone

    def __repr__(self) -> str:
        return f"ConstraintGraph({self.num_events} events, {self._edge_count} edges)"
