"""The clock hot-path kernels.

Every per-event inner loop of the analyses — the dense list-clock
kernels of the epoch detectors, the SmartTrack gated race scan, the
rule (a) source-clock joins, the rule (b) fixpoint, and the
recency-ordered (del-then-insert) table maintenance shared with the
sparse reference detectors — funnels through the functions defined
here. There is one implementation, in pure Python.

:func:`active_backend` names it (``"python"``); the name is stamped
into every ``vindicator.analyze/1`` document, the obs session meta
record and the serve shard status, whose schemas predate the single
implementation.

A dense clock is a plain ``list`` of ints indexed by the trace's own
thread index (``Trace.tid_names``/``tid_index``). Plain lists measured
faster than ``array('q')`` for indexing and joins on CPython;
``array`` is kept for long-lived packed columns
(:mod:`repro.traces.packed`).

Iteration-order contract: every dict-table kernel sees the table in
insertion order (CPython dicts), and the del-then-insert maintenance
(:func:`record_latest`) keeps that order most-recent-last — a pure
function of the record sequence, which the edge-minimising scans (and
therefore the DC edge list and the GC differentials) depend on.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    TypeVar)

__all__ = [
    "active_backend",
    "set_backend",
    "join_into_list",
    "join_into_list_changed",
    "dominates_list",
    "record_latest",
    "source_join_into",
    "rule_b_fixpoint",
    "gated_scan",
    "scan_racing_sparse",
    "source_join_into_sparse",
    "rule_b_fixpoint_sparse",
]

_K = TypeVar("_K")
_V = TypeVar("_V")

#: A dense rule-(a) record: (source eid, source local time, snapshot).
DenseRec = Tuple[int, int, List[int]]


def join_into_list(dst: List[int], src: Sequence[int]) -> None:
    """In-place pointwise max: ``dst[i] = max(dst[i], src[i])``.

    Requires ``len(src) <= len(dst)`` (clocks sharing one table and
    allocated at full table size always satisfy this).
    """
    for i, value in enumerate(src):
        if value > dst[i]:
            dst[i] = value


def join_into_list_changed(dst: List[int], src: Sequence[int]) -> bool:
    """:func:`join_into_list` that also reports whether ``dst`` grew."""
    changed = False
    for i, value in enumerate(src):
        if value > dst[i]:
            dst[i] = value
            changed = True
    return changed


def dominates_list(big: Sequence[int], small: Sequence[int]) -> bool:
    """Pointwise ``small <= big`` (missing trailing components are 0)."""
    nb = len(big)
    for i, value in enumerate(small):
        if value and (i >= nb or value > big[i]):
            return False
    return True


def record_latest(table: Dict[_K, _V], key: _K, value: _V) -> None:
    """(Re-)insert ``table[key] = value`` at the *end* of the table.

    Iteration order stays most-recent-last — a pure function of the
    record sequence. The edge-minimising scans mutate their target
    clock mid-scan, so an order that depended on *first* insertion
    (dict in-place update) would diverge once streaming GC removed and
    re-admitted a key (see ``SourceClocks.record``).
    """
    if key in table:
        del table[key]
    table[key] = value


def source_join_into(entries: Dict[int, DenseRec], values: List[int],
                        skip_ti: int) -> Optional[List[int]]:
    """Dense rule (a)/volatile join: fold every other thread's snapshot
    whose source event is not already covered (vector-clock edge
    minimisation) into ``values``. Returns the newly ordered source
    eids in table order, or None when nothing joined."""
    out: Optional[List[int]] = None
    for u, rec in entries.items():
        if u == skip_ti or values[u] >= rec[1]:
            continue
        join_into_list(values, rec[2])
        if out is None:
            out = [rec[0]]
        else:
            out.append(rec[0])
    return out


def rule_b_fixpoint(records: Dict[int, List[List[Any]]],
                       cursors: Dict[int, int],
                       values: List[int]) -> Optional[List[int]]:
    """Dense rule (b) fixpoint over per-thread critical-section queues
    (``[acq_time, rel_eid, rel_time, snapshot|None]`` records): consume
    closed sections whose acquire is covered, joining their release
    snapshots, iterating because each join can order further acquires.
    ``cursors`` is the *observer's* cursor map (mutated in place).
    Returns newly ordered release eids or None."""
    out: Optional[List[int]] = None
    changed = True
    while changed:
        changed = False
        for u, recs in records.items():
            i = cursors.get(u, 0)
            n = len(recs)
            while i < n:
                rec = recs[i]
                snap = rec[3]
                if snap is None:
                    break  # source critical section still open
                if values[u] < rec[0]:
                    break  # FIFO heads are monotone per thread
                if values[u] < rec[2]:
                    join_into_list(values, snap)
                    if out is None:
                        out = [rec[1]]
                    else:
                        out.append(rec[1])
                    changed = True
                i += 1
            cursors[u] = i
    return out


def gated_scan(
    writes: Optional[Dict[int, Tuple[int, Any, Optional[List[int]]]]],
    reads: Optional[Dict[int, Tuple[int, Any, Optional[List[int]]]]],
    ti: int, values: List[int], use_gates: bool,
    we_time: int, we_ti: int, rg_time: int, rg_ti: int, rg_shared: bool,
) -> Tuple[Optional[List[Tuple[int, Tuple[int, Any, Optional[List[int]]]]]],
           bool, bool]:
    """The SmartTrack gated race scan over dense per-thread access maps
    (tid index -> ``(time, event, snapshot)``).

    Scans ``writes`` for racing priors unless the FastTrack-style write
    epoch ``we_time @ we_ti`` is covered (the write gate, consulted
    only when ``use_gates``); then scans ``reads`` (pass None for a
    read access) unless the chained read epoch is intact and covered
    (the read gate, valid only under a passing write gate). Returns
    ``(racing, write_gate_hit, read_gate_hit)`` where ``racing`` is the
    ``(tid index, record)`` list in writes-then-reads table order, or
    None when no prior races.
    """
    racing: Optional[List[Tuple[int, Tuple[int, Any, Optional[List[int]]]]]]
    racing = None
    w_gate = False
    r_gate = False
    if writes is not None:
        if use_gates and (we_time == 0 or values[we_ti] >= we_time):
            # Write-epoch gate: the last write is covered, hence (by the
            # transitive-force propagation invariant) so is every prior
            # write — and every read up to that write.
            w_gate = True
        else:
            for u, wrec in writes.items():
                if u != ti and wrec[0] > values[u]:
                    if racing is None:
                        racing = [(u, wrec)]
                    else:
                        racing.append((u, wrec))
    if reads is not None:
        if (w_gate and not rg_shared
                and (rg_time == 0 or values[rg_ti] >= rg_time)):
            # Read gate: the chained read epoch since the last write is
            # covered (older reads are covered via the write gate,
            # which must also have passed).
            r_gate = True
        else:
            for u, rrec in reads.items():
                if u != ti and rrec[0] > values[u]:
                    if racing is None:
                        racing = [(u, rrec)]
                    else:
                        racing.append((u, rrec))
    return racing, w_gate, r_gate


def scan_racing_sparse(
    last_write: Dict[Any, Tuple[Any, Any]],
    last_read: Optional[Dict[Any, Tuple[Any, Any]]],
    tid: Any, local_time: Sequence[int],
    clock_get: Callable[[Any], int],
) -> Optional[List[Tuple[Any, Any]]]:
    """The sparse access-history race scan (``Detector.check_access``):
    a prior access by another thread with thread-local time above the
    current clock's component is unordered and therefore racing.
    ``last_read`` is None for read accesses (read/read pairs never
    race); ``local_time`` is a list for in-memory traces and an
    ``array('I')`` for streaming ones. Returns ``(event, snapshot)``
    entries in writes-then-reads table order, or None."""
    racing: Optional[List[Tuple[Any, Any]]] = None
    for rec in last_write.values():
        prior = rec[0]
        if prior.tid != tid and local_time[prior.eid] > clock_get(prior.tid):
            if racing is None:
                racing = [rec]
            else:
                racing.append(rec)
    if last_read is not None:
        for rec in last_read.values():
            prior = rec[0]
            if prior.tid != tid and local_time[prior.eid] > clock_get(prior.tid):
                if racing is None:
                    racing = [rec]
                else:
                    racing.append(rec)
    return racing


def source_join_into_sparse(entries: Dict[Any, Tuple[int, int, Any]],
                               target: Any, skip_tid: Any) -> List[int]:
    """Sparse analog of :func:`source_join_into` over dict-backed
    clocks (``target`` is a ``VectorClock``-shaped object). Returns the
    newly ordered source eids (empty list when nothing joined, matching
    the historical ``SourceClocks.join_into`` contract)."""
    new_sources: List[int] = []
    target_get = target.get
    target_join = target.join
    for tid, rec in entries.items():
        if tid == skip_tid or target_get(tid) >= rec[1]:
            continue
        target_join(rec[2])
        new_sources.append(rec[0])
    return new_sources


def rule_b_fixpoint_sparse(records: Dict[Any, List[Any]],
                              cursors: Dict[Any, int],
                              clock: Any) -> List[int]:
    """Sparse rule (b) fixpoint over ``CSRecord`` queues and a
    dict-backed observer clock; ``cursors`` is the observer's cursor
    map (mutated in place). Returns newly ordered release eids."""
    new_sources: List[int] = []
    clock_get = clock.get
    clock_join = clock.join
    changed = True
    while changed:
        changed = False
        # The observer's own records are included: rule (b) has no
        # thread restriction (see LockQueues.apply_rule_b).
        for tid, recs in records.items():
            i = cursors.get(tid, 0)
            n = len(recs)
            while i < n:
                rec = recs[i]
                rel_clock = rec.rel_clock
                if rel_clock is None:
                    # The source critical section is still open; it
                    # cannot be ordered before this release.
                    break
                t = clock_get(tid)
                if t < rec.acq_local_time:
                    break  # FIFO heads are monotone per thread.
                if t < rec.rel_local_time:
                    clock_join(rel_clock)
                    new_sources.append(rec.rel_eid)
                    changed = True
                i += 1
            cursors[tid] = i
    return new_sources


def active_backend() -> str:
    """The kernel implementation: always ``"python"``."""
    return "python"


def set_backend(choice: str) -> str:
    """Accept ``"auto"`` or ``"python"`` (both name the one
    implementation) and return :func:`active_backend`; any other choice
    raises ValueError."""
    if choice not in ("auto", "python"):
        raise ValueError(
            f"unknown kernels backend {choice!r}; expected 'auto' or "
            f"'python'")
    return active_backend()
