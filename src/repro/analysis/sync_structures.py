"""Shared bookkeeping structures for the WCP and DC analyses.

Both analyses implement the same two base rules (Definitions 2.6 and 4.1,
rules (a) and (b)) and differ only in which relation they compose with
(HB for WCP, PO for DC). The machinery for the rules is identical:

* :class:`SourceClocks` backs rule (a): for a given key — a (lock,
  variable) pair, or a volatile variable — it remembers, per source
  thread, the *latest* relevant event together with a clock snapshot
  taken when that event's ordering became final (for rule (a), at the
  release of the critical section containing the access). Later clocks
  of the same thread dominate earlier ones, so keeping only the latest
  entry per thread is lossless.

* :class:`LockQueues` backs rule (b): per lock, the history of critical
  sections by each thread, with a per-observer cursor implementing the
  FIFO queues of Kini et al.'s algorithm. At a release, the observer
  consumes every critical section whose acquire is already ordered
  before it, joining the recorded release clock (rule (b)'s conclusion),
  iterating to a fixpoint because each join can order further acquires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Collection, Dict, List, Optional, Sequence,
                    Tuple)

from repro.core import kernels as _k
from repro.core.events import Tid
from repro.core.vectorclock import VectorClock


class SourceClocks:
    """Latest (event, clock snapshot) per source thread for one key."""

    __slots__ = ("_entries",)

    def __init__(self):
        # tid -> (event eid, event thread-local time, clock snapshot)
        self._entries: Dict[Tid, Tuple[int, int, VectorClock]] = {}

    def record(self, tid: Tid, eid: int, local_time: int,
               clock: VectorClock) -> None:
        """Remember ``clock`` as the snapshot for thread ``tid``'s latest
        relevant event. The snapshot must never be mutated afterwards.

        The entry is (re-)inserted at the *end* of the table, so the
        iteration order :meth:`join_into` sees is always most-recent-last
        — a pure function of the record sequence. This matters because
        ``join_into`` mutates the target clock mid-scan (an early join
        can cover a later entry and suppress its edge): if a replaced key
        kept its old dict position, removing an entry (the epoch
        detectors' streaming GC) and re-recording it later would land it
        in a different position than an uninterrupted run, and the DC
        edge list would diverge.
        """
        _k.record_latest(self._entries, tid, (eid, local_time, clock))

    def join_into(self, target: VectorClock, skip_tid: Tid) -> List[int]:
        """Join every other thread's snapshot into ``target``; return the
        eids of source events whose ordering is *newly* established (used
        for constraint-graph edges; empty joins are skipped entirely).

        An entry is skipped when the source event is already ordered
        before the target (its own clock component is covered), which is
        the paper's vector-clock-based edge minimisation.
        """
        return _k.source_join_into_sparse(self._entries, target, skip_tid)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class CSRecord:
    """One critical section on one lock, as seen by rule (b)."""

    tid: Tid
    acq_local_time: int
    rel_eid: int = -1
    rel_local_time: int = -1
    rel_clock: Optional[VectorClock] = None

    @property
    def closed(self) -> bool:
        return self.rel_clock is not None


@dataclass
class LockQueues:
    """Rule (b) state for one lock: per-thread critical-section history
    plus per-observer consumption cursors."""

    records: Dict[Tid, List[CSRecord]] = field(default_factory=dict)
    cursors: Dict[Tid, Dict[Tid, int]] = field(default_factory=dict)
    open_record: Optional[CSRecord] = None

    def on_acquire(self, tid: Tid, acq_local_time: int) -> None:
        """Open a new critical section record for ``tid``."""
        record = CSRecord(tid=tid, acq_local_time=acq_local_time)
        self.records.setdefault(tid, []).append(record)
        self.open_record = record

    def on_release(self, rel_eid: int, rel_local_time: int,
                   snapshot: VectorClock) -> None:
        """Close the open critical section with the releasing thread's
        clock snapshot (which must not be mutated afterwards)."""
        record = self.open_record
        assert record is not None, "release without matching acquire"
        record.rel_eid = rel_eid
        record.rel_local_time = rel_local_time
        record.rel_clock = snapshot
        self.open_record = None

    def apply_rule_b(self, observer: Tid, clock: VectorClock) -> List[int]:
        """Apply rule (b) at a release by ``observer`` whose current clock
        is ``clock``: consume every other thread's critical sections whose
        acquire is ordered before this release, joining their release
        clocks. Iterates to a fixpoint since joins can order more
        acquires. Returns eids of releases newly ordered (graph edges).

        The observer's own records are included: rule (b) has no thread
        restriction, and for WCP a same-thread conclusion r1 ≺ r2 feeds
        left-HB-composition joins that program order alone does not
        imply. (For DC, own records join no new information — the
        thread's clock already dominates its own past — so they are
        consumed silently.)
        """
        my_cursors = self.cursors.setdefault(observer, {})
        return _k.rule_b_fixpoint_sparse(self.records, my_cursors, clock)


class DenseSourceClocks:
    """Dense analog of :class:`SourceClocks` used by the epoch
    detectors: latest ``(eid, local_time, snapshot list)`` per source
    *tid index* (int), over plain-list clocks.
    """

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: Dict[int, Tuple[int, int, List[int]]] = {}

    def record(self, ti: int, eid: int, t: int, snapshot: List[int]) -> None:
        """(Re-)insert at the end: iteration order is most-recent-last,
        matching :meth:`SourceClocks.record` (the reference), whose order
        the edge-minimising :meth:`join_into` scan is sensitive to."""
        _k.record_latest(self.entries, ti, (eid, t, snapshot))

    def join_into(self, values: List[int], skip_ti: int) -> Optional[List[int]]:
        """Join every other thread's snapshot whose source event is not
        already covered (vector-clock edge minimisation). Returns the
        newly ordered source eids, or None when nothing joined."""
        return _k.source_join_into(self.entries, values, skip_ti)

    def gc_retire(self, floor: Sequence[float]) -> int:
        """Drop entries at or below ``floor[ti]`` (streaming GC; see
        :mod:`repro.serve.gc`); returns how many.

        A retired entry could never contribute again: every live thread
        other than its source already covers its local time, so
        :meth:`join_into`'s covered-source skip would fire for it (no
        join, no new source eid). Removal is observationally identical,
        the DC edge list included.
        """
        entries = self.entries
        drop = [ti for ti, rec in entries.items() if rec[1] <= floor[ti]]
        for ti in drop:
            del entries[ti]
        return len(drop)


class DenseLockQueues:
    """Dense analog of :class:`LockQueues` with a single-owner tag for
    the DC ownership fast path.

    ``owner`` is -1 until the first acquire, then the acquiring tid
    index while the lock stays thread-exclusive, then -2 forever after
    a second thread acquires it.
    """

    __slots__ = ("records", "cursors", "open_ti", "open_rec", "owner")

    def __init__(self) -> None:
        # ti -> [[acq_time, rel_eid, rel_time, rel_snapshot|None], ...]
        self.records: Dict[int, List[List[object]]] = {}
        self.cursors: Dict[int, Dict[int, int]] = {}
        self.open_ti = -1
        self.open_rec: Optional[List[object]] = None
        self.owner = -1

    def on_acquire(self, ti: int, acq_time: int) -> None:
        rec: List[object] = [acq_time, -1, -1, None]
        recs = self.records.get(ti)
        if recs is None:
            recs = self.records[ti] = []
        recs.append(rec)
        self.open_ti = ti
        self.open_rec = rec

    def on_release(self, rel_eid: int, rel_time: int,
                   snapshot: List[int]) -> None:
        rec = self.open_rec
        assert rec is not None, "release without matching acquire"
        rec[1] = rel_eid
        rec[2] = rel_time
        rec[3] = snapshot
        self.open_ti = -1
        self.open_rec = None

    def apply_rule_b(self, observer: int,
                     values: List[int]) -> Optional[List[int]]:
        """Rule (b) fixpoint, exactly mirroring the reference: consume
        closed critical sections whose acquire is covered, joining their
        release snapshots. Returns newly ordered release eids or None."""
        cursors = self.cursors.get(observer)
        if cursors is None:
            cursors = self.cursors[observer] = {}
        return _k.rule_b_fixpoint(self.records, cursors, values)

    def gc_retire(self, floor: Sequence[float], dead: Collection[int],
                  own_clock: Callable[[int], Optional[List[int]]]) -> int:
        """Drop closed critical-section records no future release can
        join (streaming GC), preserving :meth:`apply_rule_b` behaviour
        bit-for-bit; returns how many.

        A record of thread ``ti`` is droppable when

        * it was released at or below ``floor[ti]``: every live observer
          other than ``ti`` covers its release time, so their rule (b)
          scans would pass it join-free, merely advancing the cursor;
          and
        * ``ti`` itself can never join it either: ``ti`` is in ``dead``,
          or its apply-side clock ``own_clock(ti)`` (WCP: ``P``, which
          lacks own program order and *does* consume own records)
          already dominates the recorded release snapshot.

        Only a *prefix* of a thread's FIFO queue may drop (cursor
        consumption is in order); observer cursors shift down with the
        prefix. The emptied queues of dead threads and the cursors of
        dead observers are removed outright: a dead thread neither
        acquires (so its dict slot can go without perturbing
        ``records`` iteration order, which the DC edge order depends
        on) nor releases (so its cursor is never read again).
        """
        retired = 0
        records = self.records
        for ti in list(records):
            recs = records[ti]
            bound = floor[ti]
            own = None if ti in dead else own_clock(ti)
            drop = 0
            for rec in recs:
                snap = rec[3]
                if snap is None or rec is self.open_rec:
                    break
                if rec[2] > bound:
                    break
                if own is not None and not _k.dominates_list(own, snap):
                    break
                drop += 1
            if drop:
                del recs[:drop]
                retired += drop
                for cursors in self.cursors.values():
                    i = cursors.get(ti)
                    if i is not None:
                        cursors[ti] = i - drop if i > drop else 0
            if not recs and ti in dead:
                del records[ti]
        for observer in [o for o in self.cursors if o in dead]:
            del self.cursors[observer]
        return retired
