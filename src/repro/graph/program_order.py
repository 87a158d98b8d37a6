"""The constraint graph ``G`` with program order left implicit.

Most of a DC graph is program order (PO): one edge ``prev(e) → e`` per
event, which the trace already records as each thread's eid list and
each event's local time. :class:`ProgramOrderGraph` stores only the
other edges: DC rule (a)/(b) edges, fork/join and volatile edges,
forced orders, and the consecutive-event and lock-semantics edges a
race adds. They are kept as per-node adjacency lists in dicts keyed by
eid, so only events with such an edge cost memory. Each event's PO
neighbours are read on demand from the trace's ``tix`` and
``local_time`` columns and its per-thread eid lists (``thread_eids``).
Those grow in place on serve's
:class:`~repro.serve.streaming.StreamingTrace`, so the graph works
while the stream grows.

The graph answers every :class:`~repro.graph.constraint_graph.ConstraintGraph`
query as if PO were stored:

* ``has_edge`` holds for a PO pair, and ``add_edge`` of one returns
  False (it is already present). PO edges cannot be removed.
* ``successors``/``predecessors`` (and their ``*_set`` forms) list the
  PO neighbour first, then the stored edges.
* ``edges()``, ``edge_count`` and ``stats()["edges"]`` count PO edges
  too; ``stats()["stored_edges"]`` counts what is actually held.

Only stored edges enter the mutation journal and the backward-edge set
(PO edges all point forward), so the cut index
(:class:`~repro.graph.cuts.CutIndex`) and the cycle search see exactly
the edges the reference graph would report beyond PO.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence

from repro.core.trace import Trace
from repro.graph.constraint_graph import ConstraintGraph, Edge

_NONE: List[int] = []


class ProgramOrderGraph(ConstraintGraph):
    """``G`` over one trace, storing only its non-program-order edges."""

    implicit_program_order = True

    def __init__(self, trace: Trace):
        # Program order is read from the trace's own columns, not copies.
        self.trace = trace
        self._tix = trace.tix
        self._local = trace.local_time
        #: Per thread index: its eids in program order.
        self._thread_eids = trace.thread_eids
        #: Stored (non-PO) adjacency, in insertion order per node.
        self._succ: Dict[int, List[int]] = {}
        self._pred: Dict[int, List[int]] = {}
        self._start_bookkeeping()

    @property
    def num_events(self) -> int:
        return len(self._local)

    # ------------------------------------------------------------------
    # Program order
    # ------------------------------------------------------------------
    def po_next(self, node: int) -> int:
        """The event after ``node`` in its thread, or -1."""
        eids = self._thread_eids[self._tix[node]]
        t = self._local[node]
        return eids[t] if t < len(eids) else -1

    def po_prev(self, node: int) -> int:
        """The event before ``node`` in its thread, or -1."""
        t = self._local[node]
        return self._thread_eids[self._tix[node]][t - 2] if t > 1 else -1

    def _in_range(self, node: int) -> bool:
        return 0 <= node < len(self._local)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_edge(self, src: int, dst: int) -> bool:
        """Add edge ``src -> dst``. Returns False if already present,
        which a program-order pair always is."""
        if src == dst:
            raise ValueError(f"self edge on event {src}")
        if not (self._in_range(src) and self._in_range(dst)):
            raise ValueError(f"edge {src} -> {dst} leaves the trace "
                             f"({self.num_events} events)")
        if dst > src and self.po_next(src) == dst:
            return False
        succ = self._succ.setdefault(src, [])
        if dst in succ:
            return False
        succ.append(dst)
        self._pred.setdefault(dst, []).append(src)
        self._record(True, src, dst)
        return True

    def remove_edge(self, src: int, dst: int) -> None:
        """Remove a stored edge; removing a program-order edge raises."""
        succ = self._succ.get(src)
        if succ is None or dst not in succ:
            if self._in_range(src) and self.po_next(src) == dst:
                raise ValueError(
                    f"{src} -> {dst} is a program-order edge, which "
                    "this graph keeps implicit")
            return
        succ.remove(dst)
        if not succ:
            del self._succ[src]
        pred = self._pred[dst]
        pred.remove(src)
        if not pred:
            del self._pred[dst]
        self._record(False, src, dst)

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def has_edge(self, src: int, dst: int) -> bool:
        if dst in self._succ.get(src, _NONE):
            return True
        return self._in_range(src) and dst > src and self.po_next(src) == dst

    def successor_set(self, node: int) -> List[int]:
        """The successors of ``node``, its PO successor first (a fresh
        list)."""
        if not self._in_range(node):
            return []
        nxt = self.po_next(node)
        stored = self._succ.get(node, _NONE)
        return [nxt, *stored] if nxt >= 0 else list(stored)

    def predecessor_set(self, node: int) -> List[int]:
        """The predecessors of ``node``, its PO predecessor first (a
        fresh list)."""
        if not self._in_range(node):
            return []
        prev = self.po_prev(node)
        stored = self._pred.get(node, _NONE)
        return [prev, *stored] if prev >= 0 else list(stored)

    successors = successor_set
    predecessors = predecessor_set

    def _ordered_successors(self, node: int) -> Sequence[int]:
        stored = self._succ.get(node)
        if stored is None:  # the common case: only the PO successor
            nxt = self.po_next(node)
            return (nxt,) if nxt >= 0 else ()
        return sorted(self.successor_set(node))

    def edges(self) -> Iterator[Edge]:
        """Every edge, program order included, by source."""
        succ = self._succ
        for src in range(self.num_events):
            nxt = self.po_next(src)
            if nxt >= 0:
                yield (src, nxt)
            for dst in succ.get(src, _NONE):
                yield (src, dst)

    def stored_edges(self) -> Iterator[Edge]:
        """The stored (non-PO) edges, by source in first-insertion
        order."""
        for src, succ in self._succ.items():
            for dst in succ:
                yield (src, dst)

    @property
    def edge_count(self) -> int:
        # One PO edge per event but each executing thread's first.
        threads = sum(1 for eids in self._thread_eids if eids)
        return len(self._local) - threads + self._edge_count

    def copy(self) -> "ProgramOrderGraph":
        clone = ProgramOrderGraph(self.trace)
        clone._succ = {src: list(s) for src, s in self._succ.items()}
        clone._pred = {dst: list(p) for dst, p in self._pred.items()}
        clone._edge_count = self._edge_count
        clone._backward = set(self._backward)
        return clone

    def __repr__(self) -> str:
        return (f"ProgramOrderGraph({self.num_events} events, "
                f"{self.edge_count} edges, {self._edge_count} stored)")
