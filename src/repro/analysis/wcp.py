"""Weak-causally-precedes (WCP) analysis (Definition 2.6; Kini et al.).

WCP shares rules (a) and (b) with DC but additionally composes with HB
on both sides (rule (c)), which makes it sound (modulo predictable
deadlocks) but incomplete. The online algorithm therefore tracks *two*
clocks per thread:

* ``H`` — the plain happens-before clock (program order, lock
  synchronisation order, fork/join, volatiles);
* ``P`` — the WCP clock: the events WCP-ordered before the thread's
  next event.

The compositions with HB appear in two places:

* *right* composition (``e ≺WCP e'' ≺HB e'``): ``P`` flows along every
  HB edge — the acquirer joins the lock's last-release ``P`` clock,
  fork/join and volatile edges join ``P`` alongside ``H``;
* *left* composition (``e ≺HB e'' ≺WCP e'``): when rules (a)/(b)
  establish ``r1 ≺WCP e2``, the clock joined into ``P`` is the *HB*
  clock snapshot taken at ``r1``, so everything HB-before ``r1``
  becomes WCP-before ``e2``.

A WCP-race is a conflicting pair unordered by WCP ∪ PO; since the race
check only consults other threads' components, ``P`` never carries the
thread's own program order.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.core.events import Event, Target, Tid
from repro.core.exceptions import MalformedTraceError
from repro.core.trace import Trace
from repro.core.vectorclock import VectorClock
from repro.analysis.base import Detector
from repro.analysis.sync_structures import LockQueues, SourceClocks


class WCPDetector(Detector):
    """Online WCP analysis (vector clocks, linear in trace length)."""

    relation = "WCP"

    def __init__(self) -> None:
        super().__init__()
        self._h: Dict[Tid, VectorClock] = {}
        self._p: Dict[Tid, VectorClock] = {}
        self._lock_h: Dict[Target, VectorClock] = {}
        self._lock_p: Dict[Target, VectorClock] = {}
        self._queues: Dict[Target, LockQueues] = {}
        self._cs_writes: Dict[Tuple[Target, Target], SourceClocks] = {}
        self._cs_reads: Dict[Tuple[Target, Target], SourceClocks] = {}
        self._vol_writes: Dict[Target, SourceClocks] = {}
        self._vol_reads: Dict[Target, SourceClocks] = {}
        self._pending_vars: Dict[Tid, Dict[Target, Tuple[Set[Target], Set[Target]]]] = {}
        self._pending_fork: Dict[Tid, Tuple[VectorClock, VectorClock]] = {}

    def begin_trace(self, trace: Trace) -> None:
        super().begin_trace(trace)
        self._h = {}
        self._p = {}
        self._lock_h = {}
        self._lock_p = {}
        self._queues = {}
        self._cs_writes = {}
        self._cs_reads = {}
        self._vol_writes = {}
        self._vol_reads = {}
        self._pending_vars = {}
        self._pending_fork = {}

    # ------------------------------------------------------------------
    # Clock plumbing
    # ------------------------------------------------------------------
    def _advance(self, e: Event) -> Tuple[VectorClock, VectorClock]:
        """Advance the thread's (H, P) clocks to this event."""
        h = self._h.get(e.tid)
        if h is None:
            h = VectorClock()
            self._h[e.tid] = h
            self._p[e.tid] = VectorClock()
        p = self._p[e.tid]
        assert self.trace is not None
        h.advance(e.tid, self.trace.local_time[e.eid])
        # P deliberately does not carry the thread's own program order;
        # the race check treats same-thread priors as PO-ordered.
        pending = self._pending_fork.pop(e.tid, None)
        if pending is not None:
            parent_h, parent_p = pending
            h.join(parent_h)
            p.join(parent_p)
            self._n_joins += 2
        return h, p

    # ------------------------------------------------------------------
    # Accesses
    # ------------------------------------------------------------------
    def _rule_a(self, e: Event, p: VectorClock, is_write: bool) -> None:
        assert self.trace is not None
        held = self.trace.held_locks(e)
        if not held:
            return
        var = e.target
        for lock in held:
            writes = self._cs_writes.get((lock, var))
            if writes:
                writes.join_into(p, e.tid)
            if is_write:
                reads = self._cs_reads.get((lock, var))
                if reads:
                    reads.join_into(p, e.tid)
            pending = self._pending_vars.setdefault(e.tid, {}).get(lock)
            if pending is None:
                pending = (set(), set())
                self._pending_vars[e.tid][lock] = pending
            pending[1 if is_write else 0].add(var)

    def on_read(self, e: Event) -> None:
        _, p = self._advance(e)
        self._rule_a(e, p, is_write=False)
        self.check_access(e, p)

    def on_write(self, e: Event) -> None:
        _, p = self._advance(e)
        self._rule_a(e, p, is_write=True)
        self.check_access(e, p)

    # ------------------------------------------------------------------
    # Lock operations
    # ------------------------------------------------------------------
    def on_acquire(self, e: Event) -> None:
        h, p = self._advance(e)
        lock_h = self._lock_h.get(e.target)
        if lock_h is not None:
            h.join(lock_h)
            p.join(self._lock_p[e.target])  # right HB composition
            self._n_joins += 2
        queues = self._queues.get(e.target)
        if queues is None:
            queues = LockQueues()
            self._queues[e.target] = queues
        assert self.trace is not None
        queues.on_acquire(e.tid, self.trace.local_time[e.eid])

    def on_release(self, e: Event) -> None:
        h, p = self._advance(e)
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
        queues.apply_rule_b(e.tid, p)  # joins H-at-release snapshots into P
        h_snapshot = h.copy()
        local_time = self.trace.local_time[e.eid]
        pending = self._pending_vars.get(e.tid, {}).pop(e.target, None)
        if pending is not None:
            read_vars, written_vars = pending
            for var in written_vars:
                table = self._cs_writes.setdefault((e.target, var), SourceClocks())
                table.record(e.tid, e.eid, local_time, h_snapshot)
            for var in read_vars:
                table = self._cs_reads.setdefault((e.target, var), SourceClocks())
                table.record(e.tid, e.eid, local_time, h_snapshot)
        queues.on_release(e.eid, local_time, h_snapshot)
        self._lock_h[e.target] = h_snapshot
        self._lock_p[e.target] = p.copy()

    # ------------------------------------------------------------------
    # Fork / join / volatiles.
    #
    # These are *hard* orderings — no correct reordering can undo them —
    # so they are base WCP edges, not merely HB edges. By rule (c)'s left
    # composition, everything HB-before the edge's source is WCP-before
    # its target, hence the joins below use H snapshots (per source
    # thread for volatiles, to avoid composing a thread's own program
    # order into its P clock).
    # ------------------------------------------------------------------
    def on_fork(self, e: Event) -> None:
        h, _ = self._advance(e)
        snapshot = h.copy()
        self._pending_fork[e.target] = (snapshot, snapshot)

    def on_join(self, e: Event) -> None:
        h, p = self._advance(e)
        pending = self._pending_fork.pop(e.target, None)
        if pending is not None:
            # Child never executed an event: the fork ordering still
            # flows through the (empty) child into the join.
            parent_h, parent_p = pending
            h.join(parent_h)
            p.join(parent_p)
            self._n_joins += 2
        child_h = self._h.get(e.target)
        if child_h is not None:
            h.join(child_h)
            p.join(child_h)
            self._n_joins += 2

    def on_volatile_write(self, e: Event) -> None:
        h, p = self._advance(e)
        assert self.trace is not None
        writes = self._vol_writes.setdefault(e.target, SourceClocks())
        reads = self._vol_reads.setdefault(e.target, SourceClocks())
        for table in (writes, reads):
            table.join_into(h, e.tid)
            table.join_into(p, e.tid)
        writes.record(e.tid, e.eid, self.trace.local_time[e.eid], h.copy())

    def on_volatile_read(self, e: Event) -> None:
        h, p = self._advance(e)
        assert self.trace is not None
        writes = self._vol_writes.get(e.target)
        if writes:
            writes.join_into(h, e.tid)
            writes.join_into(p, e.tid)
        reads = self._vol_reads.setdefault(e.target, SourceClocks())
        reads.record(e.tid, e.eid, self.trace.local_time[e.eid], h.copy())

    def on_begin(self, e: Event) -> None:
        self._advance(e)

    def on_end(self, e: Event) -> None:
        self._advance(e)

    # ------------------------------------------------------------------
    # Forced race edges
    # ------------------------------------------------------------------
    def on_forced_order(self, prior: Event, e: Event,
                        snapshot: Optional[VectorClock]) -> None:
        """Mirror a forced race edge into the H clock.

        A forced ordering is as hard as fork/join/volatile edges: it is
        an ordering every later event must respect, not something a
        reordering could undo. Joining it into P alone is not enough —
        WCP's propagation channels (release / volatile / rule (a)/(b)
        records) carry *H* snapshots, so a P-only forced edge would be
        dropped the first time the ordering has to flow through another
        thread (e.g. a volatile rd→wr chain), leaving a later access
        WCP-racing where DC, whose single clock propagates everywhere,
        is ordered — breaking WCP ⊆ DC racing-set nesting.

        HB ⊆ WCP nesting is preserved: if the forced pair was HB-ordered
        the H clock already covers ``prior`` (and hence its snapshot),
        so the joins below are no-ops; if it was HB-unordered the HB
        detector reported the same race and forced a superset (its full
        clock) into its own clock.
        """
        h = self._h[e.tid]
        assert self.trace is not None
        prior_time = self.trace.local_time[prior.eid]
        # Max semantics: rules (a)/(b) join H snapshots into P only, so
        # P can transiently exceed H on a component; never lower H.
        if h.get(prior.tid) < prior_time:
            h.set(prior.tid, prior_time)
        if self.transitive_force and snapshot is not None:
            h.join(snapshot)
            self._n_joins += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def ordered_to_current(self, prior: Event, tid: Tid) -> bool:
        if prior.tid == tid:
            return True
        p = self._p.get(tid)
        assert self.trace is not None
        return p is not None and p.get(prior.tid) >= self.trace.local_time[prior.eid]

    def clock_of(self, tid: Tid) -> Optional[VectorClock]:
        """The thread's current WCP clock (None before its first event)."""
        return self._p.get(tid)
