"""Happens-before (HB) analysis.

Tracks Definition 2.5's HB relation with vector clocks (Djit+-style):
program order, lock release→acquire synchronisation order, fork/join
edges, and volatile ordering edges, closed transitively. Conflicting
accesses unordered by HB are HB-races.

HB is the baseline relation: it is sound but predicts the fewest races
(every HB-race is a WCP-race is a DC-race).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.events import Event, Target, Tid
from repro.core.trace import Trace
from repro.core.vectorclock import VectorClock
from repro.analysis.base import Detector


class HBDetector(Detector):
    """Online vector-clock happens-before race detector."""

    relation = "HB"

    def __init__(self) -> None:
        super().__init__()
        self._clocks: Dict[Tid, VectorClock] = {}
        self._lock_clocks: Dict[Target, VectorClock] = {}
        self._volatile_writes: Dict[Target, VectorClock] = {}
        self._volatile_reads: Dict[Target, VectorClock] = {}
        self._pending_fork: Dict[Tid, VectorClock] = {}

    def begin_trace(self, trace: Trace) -> None:
        super().begin_trace(trace)
        self._clocks = {}
        self._lock_clocks = {}
        self._volatile_writes = {}
        self._volatile_reads = {}
        self._pending_fork = {}

    # ------------------------------------------------------------------
    # Clock plumbing
    # ------------------------------------------------------------------
    def _advance(self, e: Event) -> VectorClock:
        """Advance the executing thread's clock to this event and apply any
        pending fork edge. Returns the thread's clock."""
        clock = self._clocks.get(e.tid)
        if clock is None:
            clock = VectorClock()
            self._clocks[e.tid] = clock
        assert self.trace is not None
        clock.advance(e.tid, self.trace.local_time[e.eid])
        parent = self._pending_fork.pop(e.tid, None)
        if parent is not None:
            clock.join(parent)
            self._n_joins += 1
        return clock

    # ------------------------------------------------------------------
    # Event hooks
    # ------------------------------------------------------------------
    def on_read(self, e: Event) -> None:
        clock = self._advance(e)
        self.check_access(e, clock)

    def on_write(self, e: Event) -> None:
        clock = self._advance(e)
        self.check_access(e, clock)

    def on_acquire(self, e: Event) -> None:
        clock = self._advance(e)
        released = self._lock_clocks.get(e.target)
        if released is not None:
            clock.join(released)
            self._n_joins += 1

    def on_release(self, e: Event) -> None:
        clock = self._advance(e)
        self._lock_clocks[e.target] = clock.copy()

    def on_fork(self, e: Event) -> None:
        clock = self._advance(e)
        self._pending_fork[e.target] = clock.copy()

    def on_join(self, e: Event) -> None:
        clock = self._advance(e)
        pending = self._pending_fork.pop(e.target, None)
        if pending is not None:
            # Child never executed an event: the fork ordering still
            # flows through the (empty) child into the join.
            clock.join(pending)
            self._n_joins += 1
        child = self._clocks.get(e.target)
        if child is not None:
            clock.join(child)
            self._n_joins += 1

    def on_volatile_write(self, e: Event) -> None:
        clock = self._advance(e)
        for table in (self._volatile_writes, self._volatile_reads):
            prior = table.get(e.target)
            if prior is not None:
                clock.join(prior)
        snapshot = clock.copy()
        writes = self._volatile_writes.setdefault(e.target, VectorClock())
        writes.join(snapshot)

    def on_volatile_read(self, e: Event) -> None:
        clock = self._advance(e)
        prior = self._volatile_writes.get(e.target)
        if prior is not None:
            clock.join(prior)
        reads = self._volatile_reads.setdefault(e.target, VectorClock())
        reads.join(clock)

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
        """The thread's current HB clock (None if the thread has no events yet)."""
        return self._clocks.get(tid)
