"""Vector clocks.

Vector clocks [Mattern 1989] map each thread to a logical time. The
analyses in :mod:`repro.analysis` use them to represent, for each thread,
the set of events known to be ordered before the thread's next event
under a given relation (HB, WCP, or DC).

The implementation is dict-backed: absent threads implicitly have time 0,
so clocks stay small in programs where most threads never interact.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional, Tuple

from repro.core.events import Tid


class VectorClock:
    """A mutable vector clock: a map from thread id to logical time.

    Missing entries are implicitly zero. Supports in-place ``join``
    (pointwise max), component get/set, the pointwise-≤ comparison
    (``other <= self`` via :meth:`dominates`), and copying.
    """

    __slots__ = ("_clocks", "version")

    def __init__(self, clocks: Optional[Mapping[Tid, int]] = None):
        self._clocks: Dict[Tid, int] = dict(clocks) if clocks else {}
        #: Bumped on every mutation except :meth:`advance`. Snapshot
        #: caches (``Detector.check_access``) compare versions to decide
        #: whether a previously copied snapshot still equals this clock
        #: on every *foreign* component; ``advance`` is exempt because
        #: it only raises the owning thread's own component, which every
        #: snapshot consumer re-derives exactly (see the soundness note
        #: on :meth:`advance`).
        self.version: int = 0

    # ------------------------------------------------------------------
    # Component access
    # ------------------------------------------------------------------
    def get(self, tid: Tid) -> int:
        """Return this clock's component for ``tid`` (0 if absent)."""
        return self._clocks.get(tid, 0)

    def set(self, tid: Tid, time: int) -> None:
        """Set the component for ``tid``. Setting 0 removes the entry."""
        self.version += 1
        if time:
            self._clocks[tid] = time
        else:
            self._clocks.pop(tid, None)

    def advance(self, tid: Tid, time: int) -> None:
        """Set ``tid``'s component without bumping :attr:`version`.

        Only for the per-event self-advance of a thread's *own*
        component in a detector's per-thread clock ``C_t``. Soundness of
        leaving ``version`` unchanged: ``check_access`` consumers of a
        cached snapshot always overwrite the owner's component with the
        prior event's exact local time *before* joining, so a snapshot
        that is stale only in the owner's own (monotonically advanced)
        component joins to the identical result.
        """
        if time:
            self._clocks[tid] = time
        else:
            self._clocks.pop(tid, None)

    def increment(self, tid: Tid) -> int:
        """Advance ``tid``'s component by one and return the new value."""
        self.version += 1
        new = self._clocks.get(tid, 0) + 1
        self._clocks[tid] = new
        return new

    # ------------------------------------------------------------------
    # Lattice operations
    # ------------------------------------------------------------------
    def join(self, other: "VectorClock") -> bool:
        """In-place pointwise max with ``other``.

        Returns True if any component of ``self`` increased — callers use
        this to decide whether a join conveyed new ordering information
        (e.g. for constraint-graph edge minimisation).
        """
        changed = False
        mine = self._clocks
        for tid, time in other._clocks.items():
            if time > mine.get(tid, 0):
                mine[tid] = time
                changed = True
        if changed:
            self.version += 1
        return changed

    def dominates(self, other: "VectorClock") -> bool:
        """Return True if ``other ⊑ self`` (pointwise ≤)."""
        mine = self._clocks
        for tid, time in other._clocks.items():
            if time > mine.get(tid, 0):
                return False
        return True

    def copy(self) -> "VectorClock":
        clone = VectorClock()
        clone._clocks = dict(self._clocks)
        return clone

    # ------------------------------------------------------------------
    # Protocol support
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        return self._clocks == other._clocks

    def __hash__(self):  # pragma: no cover - clocks are mutable
        raise TypeError("VectorClock is mutable and unhashable")

    def __iter__(self) -> Iterator[Tuple[Tid, int]]:
        return iter(self._clocks.items())

    def __len__(self) -> int:
        return len(self._clocks)

    def __bool__(self) -> bool:
        return bool(self._clocks)

    def __repr__(self) -> str:
        inner = ", ".join(f"T{t}:{c}" for t, c in sorted(self._clocks.items(), key=str))
        return f"VC[{inner}]"

    def as_dict(self) -> Dict[Tid, int]:
        """Return a snapshot of the non-zero components."""
        return dict(self._clocks)
