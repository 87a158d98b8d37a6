"""Windowed metadata GC for streaming sessions.

Every ``gc_window`` accepted events, the session calls :func:`collect`,
which retires detector metadata no live thread can ever observe again:

* access-history entries (per-variable last read/write per thread),
* rule-(a) source-clock entries (critical-section and volatile tables),
* rule-(b) critical-section records and the cursors of dead observers,
* the per-thread clocks, snapshots, and caches of *joined* threads.

The criterion (see :class:`repro.analysis.base.GCFloors`): an entry
attributed to thread ``u`` at thread-local time ``t`` retires once every
live thread's cover clock has ``u``'s component at ``>= t`` — then no
future race scan or join can be affected by it, so the GC-on and GC-off
runs produce bit-identical verdicts, racing sets, counters, and DC edge
lists (the differential the tests pin). Soundness additionally requires
a fork-closed stream, which GC-enabled sessions enforce at ingestion.

The GC tick is a pure function of the accepted-event count, so it fires
at the same stream positions regardless of how the client chunked its
frames — the property that makes checkpoint/resume deterministic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.analysis.base import GCFloors
from repro.core.events import Tid

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.smarttrack import _EpochDetectorBase
    from repro.serve.streaming import StreamingTrace


def _cover(detector: _EpochDetectorBase, tid: Tid) -> Dict[Tid, int]:
    """Component-wise min over the detector's cover clocks for ``tid``.

    Components absent from any cover clock min to zero and are simply
    omitted (``GCFloors`` treats missing as 0).
    """
    clocks = detector.gc_cover_clocks(tid)
    if not clocks:
        return {}
    first = clocks[0]
    cover: Dict[Tid, int] = {u: t for u, t in first}
    for clock in clocks[1:]:
        for u in list(cover):
            other = clock.get(u)
            if other < cover[u]:
                if other:
                    cover[u] = other
                else:
                    del cover[u]
    return cover


def collect(trace: StreamingTrace,
            detectors: tuple[_EpochDetectorBase, ...]) -> int:
    """Run one GC pass over every detector; returns entries retired.

    A live thread with no clock yet (e.g. forked before its parent's
    snapshot survived — impossible today, but belt and braces) maps to
    an empty cover, pinning every floor at zero rather than silently
    loosening the criterion.
    """
    dead = trace.dead_tids()
    live = trace.cover_tids()
    joined = trace.joined_tids()
    retired = 0
    for detector in detectors:
        covers = {tid: _cover(detector, tid) for tid in live}
        floors = GCFloors(covers, dead)
        retired += detector.gc_collect(floors)
        for tid in joined:
            detector.gc_drop_thread(tid)
    return retired
