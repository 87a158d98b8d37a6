"""Doesn't-commute (DC) analysis (Section 4 and Appendix A).

DC (Definition 4.1) is the complete-but-unsound predictive relation at
the core of Vindicator. Its rules (a) and (b) are WCP's, but DC composes
only with program order — there is *no* synchronisation-order join at an
acquire and no HB composition — so DC orders strictly fewer events than
WCP ∪ PO and therefore predicts every predictable race (Theorem 1),
along with possible false races that VindicateRace later checks.

The detector simultaneously builds the constraint graph ``G`` whose
reachability equals DC ordering (Section 5.1). Following the paper's
implementation notes it adds an edge ``(e_src, e)`` only when the
ordering is newly established at ``e`` (vector-clock edge minimisation),
and after reporting a race it forces the racing pair's ordering in both
the clocks and the graph.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.events import Event, Target, Tid
from repro.core.exceptions import MalformedTraceError
from repro.core.trace import Trace
from repro.core.vectorclock import VectorClock
from repro.analysis.base import Detector
from repro.analysis.races import RaceReport
from repro.analysis.sync_structures import LockQueues, SourceClocks
from repro.graph.constraint_graph import ConstraintGraph


class DCDetector(Detector):
    """Online DC analysis with optional constraint-graph construction.

    Args:
        build_graph: Whether to build the constraint graph ``G``
            alongside the vector clocks (needed for vindication; can be
            disabled to measure the pure analysis cost).
    """

    relation = "DC"

    def __init__(self, build_graph: bool = True):
        super().__init__()
        self.build_graph = build_graph
        self.graph = ConstraintGraph()
        self._clocks: Dict[Tid, VectorClock] = {}
        self._queues: Dict[Target, LockQueues] = {}
        self._cs_writes: Dict[Tuple[Target, Target], SourceClocks] = {}
        self._cs_reads: Dict[Tuple[Target, Target], SourceClocks] = {}
        self._vol_writes: Dict[Target, SourceClocks] = {}
        self._vol_reads: Dict[Target, SourceClocks] = {}
        self._pending_vars: Dict[Tid, Dict[Target, Tuple[Set[Target], Set[Target]]]] = {}
        self._pending_fork: Dict[Tid, Tuple[int, VectorClock]] = {}
        self._last_event: Dict[Tid, int] = {}
        #: Non-PO graph edges added; batched into the report (and the
        #: metrics registry) at :meth:`finish` so the per-edge cost is a
        #: single int increment on the hot path.
        self._n_graph_edges = 0

    def begin_trace(self, trace: Trace) -> None:
        super().begin_trace(trace)
        self.graph = ConstraintGraph(len(trace))
        self._n_graph_edges = 0
        self._clocks = {}
        self._queues = {}
        self._cs_writes = {}
        self._cs_reads = {}
        self._vol_writes = {}
        self._vol_reads = {}
        self._pending_vars = {}
        self._pending_fork = {}
        self._last_event = {}

    def finish(self) -> RaceReport:
        assert self.report is not None, "begin_trace was never called"
        if self._n_graph_edges:
            counters = self.report.counters
            counters["graph_edges"] = (
                counters.get("graph_edges", 0) + self._n_graph_edges)
            self._n_graph_edges = 0
        return super().finish()

    # ------------------------------------------------------------------
    # Clock / graph plumbing
    # ------------------------------------------------------------------
    def _advance(self, e: Event) -> VectorClock:
        """Advance the thread's DC clock to this event; add the PO edge
        and any pending fork edge to the graph."""
        clock = self._clocks.get(e.tid)
        if clock is None:
            clock = VectorClock()
            self._clocks[e.tid] = clock
        assert self.trace is not None
        clock.advance(e.tid, self.trace.local_time[e.eid])
        if self.build_graph:
            prev = self._last_event.get(e.tid)
            if prev is not None:
                self.graph.add_edge(prev, e.eid)
        pending = self._pending_fork.pop(e.tid, None)
        if pending is not None:
            fork_eid, parent_clock = pending
            clock.join(parent_clock)
            self._n_joins += 1
            self._add_edge(fork_eid, e.eid)
        self._last_event[e.tid] = e.eid
        return clock

    def _add_edge(self, src: int, dst: int) -> None:
        if self.build_graph:
            self.graph.add_edge(src, dst)
            self._n_graph_edges += 1

    def _add_edges(self, sources: List[int], dst: int) -> None:
        for src in sources:
            self._add_edge(src, dst)

    def on_forced_order(self, prior: Event, e: Event,
                        snapshot: Optional[VectorClock]) -> None:
        # The snapshot was already joined by check_access; DC's single
        # clock carries it everywhere, so only the graph needs the edge.
        self._add_edge(prior.eid, e.eid)
        self.bump("forced_orders")

    # ------------------------------------------------------------------
    # Accesses: rule (a) joins, pending recording, race check
    # ------------------------------------------------------------------
    def _rule_a(self, e: Event, clock: VectorClock, is_write: bool) -> None:
        assert self.trace is not None
        held = self.trace.held_locks(e)
        if not held:
            return
        var = e.target
        for lock in held:
            writes = self._cs_writes.get((lock, var))
            if writes:
                self._add_edges(writes.join_into(clock, e.tid), e.eid)
            if is_write:
                reads = self._cs_reads.get((lock, var))
                if reads:
                    self._add_edges(reads.join_into(clock, e.tid), e.eid)
            pending = self._pending_vars.setdefault(e.tid, {}).get(lock)
            if pending is None:
                pending = (set(), set())
                self._pending_vars[e.tid][lock] = pending
            pending[1 if is_write else 0].add(var)

    def on_read(self, e: Event) -> None:
        clock = self._advance(e)
        self._rule_a(e, clock, is_write=False)
        self.check_access(e, clock)

    def on_write(self, e: Event) -> None:
        clock = self._advance(e)
        self._rule_a(e, clock, is_write=True)
        self.check_access(e, clock)

    # ------------------------------------------------------------------
    # Lock operations: rule (b) and rule (a) recording
    # ------------------------------------------------------------------
    def on_acquire(self, e: Event) -> None:
        self._advance(e)
        assert self.trace is not None
        queues = self._queues.get(e.target)
        if queues is None:
            queues = LockQueues()
            self._queues[e.target] = queues
        queues.on_acquire(e.tid, self.trace.local_time[e.eid])
        # Note: no synchronisation-order join — this is where DC departs
        # from HB and WCP.

    def on_release(self, e: Event) -> None:
        clock = self._advance(e)
        assert self.trace is not None
        queues = self._queues.get(e.target)
        if queues is None or queues.open_record is None \
                or queues.open_record.tid != e.tid:
            # Streaming traces bypass Trace's construction-time
            # validation, so a release without a matching acquire must
            # surface as a malformed-trace error, not a KeyError.
            raise MalformedTraceError(
                f"{e}: releases lock {e.target!r} with no matching acquire "
                f"by thread {e.tid!r}",
                event_index=e.eid,
            )
        self._add_edges(queues.apply_rule_b(e.tid, clock), e.eid)
        snapshot = clock.copy()
        local_time = self.trace.local_time[e.eid]
        pending = self._pending_vars.get(e.tid, {}).pop(e.target, None)
        if pending is not None:
            read_vars, written_vars = pending
            for var in written_vars:
                table = self._cs_writes.setdefault((e.target, var), SourceClocks())
                table.record(e.tid, e.eid, local_time, snapshot)
            for var in read_vars:
                table = self._cs_reads.setdefault((e.target, var), SourceClocks())
                table.record(e.tid, e.eid, local_time, snapshot)
        queues.on_release(e.eid, local_time, snapshot)

    # ------------------------------------------------------------------
    # Fork / join / volatiles: direct DC ordering (Section 6.1)
    # ------------------------------------------------------------------
    def on_fork(self, e: Event) -> None:
        clock = self._advance(e)
        self._pending_fork[e.target] = (e.eid, clock.copy())

    def on_join(self, e: Event) -> None:
        clock = self._advance(e)
        pending = self._pending_fork.pop(e.target, None)
        if pending is not None:
            # The child never executed an event, so its first-event hook
            # never consumed the fork: the fork ordering still flows
            # through the (empty) child into the join, both in the clock
            # and as a fork→join graph edge.
            fork_eid, parent_clock = pending
            clock.join(parent_clock)
            self._n_joins += 1
            self._add_edge(fork_eid, e.eid)
        child_clock = self._clocks.get(e.target)
        if child_clock is not None:
            clock.join(child_clock)
            self._n_joins += 1
            child_last = self._last_event.get(e.target)
            if child_last is not None:
                self._add_edge(child_last, e.eid)

    def on_volatile_write(self, e: Event) -> None:
        clock = self._advance(e)
        assert self.trace is not None
        writes = self._vol_writes.setdefault(e.target, SourceClocks())
        reads = self._vol_reads.setdefault(e.target, SourceClocks())
        self._add_edges(writes.join_into(clock, e.tid), e.eid)
        self._add_edges(reads.join_into(clock, e.tid), e.eid)
        writes.record(e.tid, e.eid, self.trace.local_time[e.eid], clock.copy())

    def on_volatile_read(self, e: Event) -> None:
        clock = self._advance(e)
        assert self.trace is not None
        writes = self._vol_writes.get(e.target)
        if writes:
            self._add_edges(writes.join_into(clock, e.tid), e.eid)
        reads = self._vol_reads.setdefault(e.target, SourceClocks())
        reads.record(e.tid, e.eid, self.trace.local_time[e.eid], clock.copy())

    def on_begin(self, e: Event) -> None:
        self._advance(e)

    def on_end(self, e: Event) -> None:
        self._advance(e)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def ordered_to_current(self, prior: Event, tid: Tid) -> bool:
        if prior.tid == tid:
            return True
        clock = self._clocks.get(tid)
        assert self.trace is not None
        return clock is not None and clock.get(prior.tid) >= self.trace.local_time[prior.eid]

    def clock_of(self, tid: Tid) -> Optional[VectorClock]:
        """The thread's current DC clock (None before its first event)."""
        return self._clocks.get(tid)
