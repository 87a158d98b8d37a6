"""Windowed metadata GC for streaming sessions.

Every ``gc_window`` accepted events, the session calls :func:`collect`,
which retires detector metadata no live thread can ever observe again:

* access-history entries (per-variable last read/write per thread),
* rule-(a) source-clock entries (critical-section and volatile tables),
* rule-(b) critical-section records and the cursors of dead observers,
* the per-thread clocks, snapshots, and caches of *joined* threads.

Everything here is in the trace's thread-index space: the detectors'
clocks are lists indexed by thread index, and so are the covers and
floors computed from them.

The criterion. A thread ``v`` is *live* when it may still produce
events: started and neither ended nor joined, or forked and not yet
begun. Its *cover* is a component-wise lower bound on every clock ``v``
will ever use to observe other threads under the detector's relation:
for HB ``C_v``; for WCP the component-wise min of ``H_v`` and ``P_v``
(a forked child's initial ``P`` is the parent's ``H`` snapshot, so both
must cover); for DC the thread clock. A pending forked child's cover is
its stored fork snapshot, which lower-bounds its future clocks. The
*floor* of thread ``u`` is the min over live ``v != u`` of ``cover_v[u]``
(``+inf`` when no other thread is live).

A metadata entry attributed to thread ``u`` at thread-local time ``t``
is retirable iff ``t <= floor[u]``: every live thread other than ``u``
already has ``u``'s component at ``>= t``, so no future race check or
rule-(a)/(b) join can observe the entry. Race scans see
``local_time <= clock[u]`` (not racing) and source-clock joins see
``target[u] >= t`` (skipped). Retiring it is therefore invisible to
verdicts, racing sets, counters, and the DC edge list: the GC-on and
GC-off runs are bit-identical (the differential the tests pin).

Soundness additionally requires a *fork-closed* stream: a thread that
appeared out of nowhere would start with an empty clock and could race
with already-retired entries. GC-enabled sessions enforce that at
ingestion.

The GC tick is a pure function of the accepted-event count, so it fires
at the same stream positions regardless of how the client chunked its
frames — the property that makes checkpoint/resume deterministic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.smarttrack import _EpochDetectorBase
    from repro.serve.streaming import StreamingTrace


def _cover(clocks: Sequence[List[int]]) -> List[int]:
    """Component-wise min of a live thread's cover clocks (missing
    trailing components read as 0, so the shortest clock bounds it)."""
    if len(clocks) == 1:
        return clocks[0]
    return [min(column) for column in zip(*clocks)]


def _floors(covers: List[Tuple[int, List[int]]], n: int) -> List[float]:
    """``floor[u]`` for every thread index ``u < n``: the min over live
    ``v != u`` of ``cover_v[u]``, ``+inf`` when no other thread is
    live."""
    return [min((cover[u] if u < len(cover) else 0
                 for v, cover in covers if v != u), default=float("inf"))
            for u in range(n)]


def collect(trace: StreamingTrace,
            detectors: tuple[_EpochDetectorBase, ...]) -> int:
    """Run one GC pass over every detector; returns entries retired.

    A live thread with no clock yet (e.g. forked before its parent's
    snapshot survived — impossible today, but belt and braces) has an
    empty cover, pinning every floor at zero rather than silently
    loosening the criterion.
    """
    dead = trace.dead_tids()
    live = trace.cover_tids()
    joined = trace.joined_tids()
    n = len(trace.tid_names)
    retired = 0
    for detector in detectors:
        covers = [(v, _cover(detector.gc_cover_clocks(v))) for v in live]
        retired += detector.gc_collect(_floors(covers, n), dead)
        for ti in joined:
            detector.gc_drop_thread(ti)
    return retired
