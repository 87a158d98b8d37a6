"""Dense, array-backed vector clocks (the kernel of the epoch detectors).

The dict-backed :class:`~repro.core.vectorclock.VectorClock` is the
clarity-first representation: absent threads are implicitly zero and any
hashable thread id works. Its hot operations, however, pay dict hashing
per component. This module provides the dense alternative used by the
SmartTrack-style detectors (:mod:`repro.analysis.smarttrack`):

* :class:`TidTable` — compact interning of thread ids to indices
  ``0..T-1`` (shared with the trace's own interning by :meth:`TidTable.over`);
* free functions :func:`join_into_list` / :func:`dominates_list` — fused
  component kernels over plain ``list``-of-int clock storage (measured
  faster than ``array('q')`` for indexing/joins on CPython; ``array`` is
  reserved for long-lived packed columns, see
  :mod:`repro.traces.packed`);
* :class:`DenseVectorClock` — a drop-in object API mirroring
  ``VectorClock`` (``get``/``set``/``advance``/``join``/``dominates``/
  ``copy``/``version``) over a shared :class:`TidTable`, so the base
  :meth:`~repro.analysis.base.Detector.check_access` snapshot cache and
  the differential tests work unchanged.

Clocks from different tables must never be mixed; everything created by
one detector run shares that run's table. Components for tids the table
does not know are implicitly zero, exactly like missing dict entries.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core import kernels as _k
from repro.core.events import Tid
# The list kernels live in repro.core.kernels; re-exported under their
# historical names here.
from repro.core.kernels import (dominates_list as dominates_list,
                                join_into_list as join_into_list,
                                join_into_list_changed as
                                join_into_list_changed)
from repro.core.vectorclock import VectorClock


class TidTable:
    """Compact interning of thread ids to dense indices ``0..T-1``.

    Iteration order of :attr:`tids` is interning order, so detectors that
    pre-populate the table with ``trace.threads`` scan components in the
    same first-appearance order the dict-backed clocks use.
    """

    __slots__ = ("tids", "index")

    def __init__(self, tids: Sequence[Tid] = ()):
        #: index -> thread id.
        self.tids: List[Tid] = []
        #: thread id -> index.
        self.index: Dict[Tid, int] = {}
        for tid in tids:
            self.intern(tid)

    @classmethod
    def over(cls, tids: List[Tid], index: Dict[Tid, int]) -> "TidTable":
        """A table over an existing interning (a trace's ``tid_names``
        and ``tid_index``), shared rather than copied, so it sees the
        threads a growing trace interns later."""
        table = cls()
        table.tids = tids
        table.index = index
        return table

    def intern(self, tid: Tid) -> int:
        """Return ``tid``'s index, assigning the next one if unseen."""
        idx = self.index.get(tid)
        if idx is None:
            idx = len(self.tids)
            self.index[tid] = idx
            self.tids.append(tid)
        return idx

    def __len__(self) -> int:
        return len(self.tids)

    def __repr__(self) -> str:
        return f"TidTable({self.tids!r})"


class DenseVectorClock:
    """A dense vector clock over a shared :class:`TidTable`.

    API-compatible with :class:`~repro.core.vectorclock.VectorClock`
    (including the :attr:`version` contract: bumped on every mutation
    except :meth:`advance` — see ``VectorClock.advance`` for why the
    snapshot caches may ignore self-advances). Component storage is a
    plain list indexed by tid index; reads and joins do no hashing.
    """

    __slots__ = ("table", "_values", "version")

    def __init__(self, table: TidTable,
                 values: Optional[List[int]] = None,
                 clocks: Optional[Mapping[Tid, int]] = None):
        self.table = table
        if values is not None:
            #: Shared by reference, not copied: callers building a view
            #: over detector-internal storage rely on this.
            self._values = values
        else:
            self._values = [0] * len(table)
            if clocks:
                for tid, time in clocks.items():
                    self._values[table.intern(tid)] = time
        self.version: int = 0

    # ------------------------------------------------------------------
    # Component access
    # ------------------------------------------------------------------
    def get(self, tid: Tid) -> int:
        idx = self.table.index.get(tid)
        if idx is None or idx >= len(self._values):
            return 0
        return self._values[idx]

    def _slot(self, tid: Tid) -> int:
        """Intern ``tid`` and grow storage to cover its index."""
        table = self.table
        return _k.slot_intern(table.index, table.tids, self._values, tid)

    def set(self, tid: Tid, time: int) -> None:
        self.version += 1
        self._values[self._slot(tid)] = time

    def advance(self, tid: Tid, time: int) -> None:
        """Self-advance without a version bump (see ``VectorClock.advance``)."""
        self._values[self._slot(tid)] = time

    def increment(self, tid: Tid) -> int:
        self.version += 1
        idx = self._slot(tid)
        new = self._values[idx] + 1
        self._values[idx] = new
        return new

    # ------------------------------------------------------------------
    # Lattice operations
    # ------------------------------------------------------------------
    def join(self, other: Union["DenseVectorClock", VectorClock]) -> bool:
        changed = False
        values = self._values
        if isinstance(other, DenseVectorClock) and other.table is self.table:
            src = other._values
            if len(src) > len(values):
                values.extend([0] * (len(src) - len(values)))
            changed = _k.join_into_list_changed(values, src)
        else:
            for tid, time in other:
                idx = self._slot(tid)
                if time > values[idx]:
                    values[idx] = time
                    changed = True
        if changed:
            self.version += 1
        return changed

    def dominates(self, other: Union["DenseVectorClock", VectorClock]) -> bool:
        if isinstance(other, DenseVectorClock) and other.table is self.table:
            return _k.dominates_list(self._values, other._values)
        return all(time <= self.get(tid) for tid, time in other)

    def copy(self) -> "DenseVectorClock":
        clone = DenseVectorClock(self.table, values=self._values.copy())
        return clone

    # ------------------------------------------------------------------
    # Protocol support
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[Tid, int]:
        tids = self.table.tids
        return {tids[i]: v for i, v in enumerate(self._values) if v}

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DenseVectorClock):
            return self.as_dict() == other.as_dict()
        if isinstance(other, VectorClock):
            return self.as_dict() == other.as_dict()
        return NotImplemented

    # Mutable, so unhashable — same contract as VectorClock.  Setting
    # __hash__ = None (rather than a raising method) makes
    # ``isinstance(clock, collections.abc.Hashable)`` False too.
    __hash__ = None  # type: ignore[assignment]

    def __iter__(self) -> Iterator[Tuple[Tid, int]]:
        tids = self.table.tids
        return ((tids[i], v) for i, v in enumerate(self._values) if v)

    def __len__(self) -> int:
        return sum(1 for v in self._values if v)

    def __bool__(self) -> bool:
        return any(self._values)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"T{t}:{c}" for t, c in sorted(self.as_dict().items(), key=str))
        return f"DenseVC[{inner}]"
