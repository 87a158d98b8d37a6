"""Backend dispatch for the clock hot-path kernels.

Every per-event inner loop of the analyses — the dense list-clock
kernels of the epoch detectors, the SmartTrack gated race scan, the
rule (a) source-clock joins, the rule (b) fixpoint, and the
recency-ordered (del-then-insert) table maintenance shared with the
sparse reference detectors — funnels through the module-level functions
defined here. Two interchangeable implementations exist:

* **python** — the pure-Python reference implementations in this file
  (``py_*``). Always available; semantics-defining.
* **compiled** — :mod:`repro.core._kernels`, a hand-written CPython
  extension built by ``setup.py`` when a C compiler is present
  (``pip install -e .`` degrades gracefully to pure Python when it is
  not). Bit-identical to the reference implementations by construction
  and gated by ``tests/test_kernels_differential.py`` plus the existing
  differential suites.

Selection happens at import time from the ``VINDICATOR_KERNELS``
environment variable (``auto`` — compiled when importable, else python;
``python``; ``compiled`` — fail loudly when unavailable) and can be
changed afterwards with :func:`set_backend` (the CLI's global
``--kernels`` flag). Consumers must call through the module attribute
(``kernels.join_into_list(...)``), never ``from``-import a kernel, so a
later :func:`set_backend` rebinds them too.

:func:`active_backend` reports which implementation is live; it is
stamped into every ``vindicator.analyze/1`` document, the obs session
meta record, the serve shard status, and the Prometheus ``/metrics``
export, so any result can be traced to the backend that produced it.

Iteration-order contract: every dict-table kernel sees the table in
insertion order (CPython dicts; ``PyDict_Next`` on the C side), and the
del-then-insert maintenance (:func:`record_latest`) keeps that order
most-recent-last — a pure function of the record sequence, which the
edge-minimising scans (and therefore the DC edge list and the GC
differentials) depend on.
"""

from __future__ import annotations

import os
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    TypeVar)

__all__ = [
    "active_backend",
    "backends",
    "compiled_available",
    "set_backend",
    "join_into_list",
    "join_into_list_changed",
    "dominates_list",
    "record_latest",
    "slot_intern",
    "source_join_into",
    "rule_b_fixpoint",
    "gated_scan",
    "scan_racing_sparse",
    "source_join_into_sparse",
    "rule_b_fixpoint_sparse",
    "drain_edges",
    "access_wcp",
    "access_dc",
    "acquire_wcp",
    "release_wcp",
    "fork_wcp",
    "join_wcp",
    "acquire_dc",
    "release_dc",
    "fork_dc",
    "join_dc",
]

_K = TypeVar("_K")
_V = TypeVar("_V")

#: A dense rule-(a) record: (source eid, source local time, snapshot).
DenseRec = Tuple[int, int, List[int]]


# ----------------------------------------------------------------------
# Pure-Python reference implementations (the semantics of the layer)
# ----------------------------------------------------------------------
def py_join_into_list(dst: List[int], src: Sequence[int]) -> None:
    """In-place pointwise max: ``dst[i] = max(dst[i], src[i])``.

    Requires ``len(src) <= len(dst)`` (clocks sharing one table and
    allocated at full table size always satisfy this).
    """
    for i, value in enumerate(src):
        if value > dst[i]:
            dst[i] = value


def py_join_into_list_changed(dst: List[int], src: Sequence[int]) -> bool:
    """:func:`py_join_into_list` that also reports whether ``dst`` grew."""
    changed = False
    for i, value in enumerate(src):
        if value > dst[i]:
            dst[i] = value
            changed = True
    return changed


def py_dominates_list(big: Sequence[int], small: Sequence[int]) -> bool:
    """Pointwise ``small <= big`` (missing trailing components are 0)."""
    nb = len(big)
    for i, value in enumerate(small):
        if value and (i >= nb or value > big[i]):
            return False
    return True


def py_record_latest(table: Dict[_K, _V], key: _K, value: _V) -> None:
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


def py_slot_intern(index: Dict[Any, int], tids: List[Any],
                   values: List[int], tid: Any) -> int:
    """Intern ``tid`` into the (``index``, ``tids``) table and grow the
    ``values`` storage to cover its slot; returns the slot index."""
    idx = index.get(tid)
    if idx is None:
        idx = len(tids)
        index[tid] = idx
        tids.append(tid)
    if idx >= len(values):
        values.extend([0] * (len(tids) - len(values)))
    return idx


def py_source_join_into(entries: Dict[int, DenseRec], values: List[int],
                        skip_ti: int) -> Optional[List[int]]:
    """Dense rule (a)/volatile join: fold every other thread's snapshot
    whose source event is not already covered (vector-clock edge
    minimisation) into ``values``. Returns the newly ordered source
    eids in table order, or None when nothing joined."""
    out: Optional[List[int]] = None
    for u, rec in entries.items():
        if u == skip_ti or values[u] >= rec[1]:
            continue
        py_join_into_list(values, rec[2])
        if out is None:
            out = [rec[0]]
        else:
            out.append(rec[0])
    return out


def py_rule_b_fixpoint(records: Dict[int, List[List[Any]]],
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
                    py_join_into_list(values, snap)
                    if out is None:
                        out = [rec[1]]
                    else:
                        out.append(rec[1])
                    changed = True
                i += 1
            cursors[u] = i
    return out


def py_gated_scan(
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


def py_scan_racing_sparse(
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


def py_source_join_into_sparse(entries: Dict[Any, Tuple[int, int, Any]],
                               target: Any, skip_tid: Any) -> List[int]:
    """Sparse analog of :func:`py_source_join_into` over dict-backed
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


def py_rule_b_fixpoint_sparse(records: Dict[Any, List[Any]],
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


def py_drain_edges(pairs: List[int],
                   add_edge: Callable[[int, int], Any]) -> int:
    """Drain a DC *edge buffer* into a constraint graph.

    ``pairs`` is the flat append-ordered buffer the graph-building DC
    detectors accumulate — ``[src0, dst0, src1, dst1, ...]`` — with one
    (src, dst) pair per ``add_edge`` call the reference detector would
    have made, in the reference's exact insertion order (every reference
    edge is inserted while processing its destination event, and events
    are processed in trace order, so a single append-ordered stream
    reproduces it). Both backends append into the same plain list: the
    Python detector paths via ``list.append`` and the fused compiled
    kernels via C-side ``PyList_Append`` — a growable C array either
    way, with no per-edge Python call on the compiled path.

    Calls ``add_edge(src, dst)`` for every pair, clears the buffer, and
    returns the number of pairs drained.
    """
    it = iter(pairs)
    n = 0
    for src, dst in zip(it, it):
        add_edge(src, dst)
        n += 1
    pairs.clear()
    return n


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------
#: Kernels with a native implementation in repro.core._kernels.
_COMPILED_NAMES: Tuple[str, ...] = (
    "join_into_list",
    "join_into_list_changed",
    "dominates_list",
    "record_latest",
    "slot_intern",
    "source_join_into",
    "rule_b_fixpoint",
    "gated_scan",
    "scan_racing_sparse",
)

#: Kernels behind the boundary whose compiled backend reuses the Python
#: implementation: the sparse rule (a)/(b) loops spend their time in
#: VectorClock method calls, so a native loop harness buys nothing —
#: they are routed here so a future backend (or a set-based detector's
#: kernel set) can take them without touching the analyses again.
_PYTHON_ONLY_NAMES: Tuple[str, ...] = (
    "source_join_into_sparse",
    "rule_b_fixpoint_sparse",
    "drain_edges",
)

#: Compiled-only *fused* kernels: one call executes the whole per-access
#: fast path of an epoch detector (advance + rule (a) staging +
#: prefilter gate + exclusive-stage store), returning 1 when the rare
#: SHARED-stage check must still run in Python.  Under the python
#: backend these bind to None and the detectors run their open-coded
#: ``_on_access`` — which *is* the reference implementation the fused
#: kernels are line-for-line transcriptions of.  Consumers must
#: therefore test for None at trace start (see
#: ``_EpochDetectorBase``); bit-identical behaviour across the two
#: routes is enforced by the end-to-end differential suites.
_FUSED_NAMES: Tuple[str, ...] = (
    "access_wcp",
    "access_dc",
)

#: Compiled-only fused *sync-op* kernels: one call executes the whole
#: ``on_acquire`` / ``on_release`` / ``on_fork`` / ``on_join`` body of an
#: epoch detector — clock advance, rule (a)/(b) queue maintenance, CCS
#: ownership-tag updates, H/P snapshot recording, and (for DC with the
#: graph on) edge-buffer appends — against a per-trace sync context
#: tuple.  Like the fused access kernels they bind to None under the
#: python backend (the detectors' open-coded ``on_*`` methods are the
#: reference these transcribe).  The release kernels return a status
#: int (0 — handled, 1 — no matching acquire) so the caller raises the
#: exact exception the open-coded path would.
_SYNC_NAMES: Tuple[str, ...] = (
    "acquire_wcp",
    "release_wcp",
    "fork_wcp",
    "join_wcp",
    "acquire_dc",
    "release_dc",
    "fork_dc",
    "join_dc",
)

_compiled_mod: Optional[Any]
try:  # pragma: no cover - exercised only when the extension is built
    from repro.core import _kernels as _compiled_mod  # type: ignore[attr-defined]
except ImportError:  # pragma: no cover - default source checkout
    _compiled_mod = None

_active = "python"

# Dispatched public bindings (rebound by set_backend; call through the
# module attribute, never `from`-import these).
join_into_list: Callable[[List[int], Sequence[int]], None]
join_into_list_changed: Callable[[List[int], Sequence[int]], bool]
dominates_list: Callable[[Sequence[int], Sequence[int]], bool]
record_latest: Callable[..., None]
slot_intern: Callable[[Dict[Any, int], List[Any], List[int], Any], int]
source_join_into: Callable[
    [Dict[int, DenseRec], List[int], int], Optional[List[int]]]
rule_b_fixpoint: Callable[
    [Dict[int, List[List[Any]]], Dict[int, int], List[int]],
    Optional[List[int]]]
gated_scan: Callable[..., Tuple[Optional[List[Any]], bool, bool]]
scan_racing_sparse: Callable[..., Optional[List[Tuple[Any, Any]]]]
source_join_into_sparse: Callable[
    [Dict[Any, Tuple[int, int, Any]], Any, Any], List[int]]
rule_b_fixpoint_sparse: Callable[
    [Dict[Any, List[Any]], Dict[Any, int], Any], List[int]]
drain_edges: Callable[[List[int], Callable[[int, int], Any]], int]
access_wcp: Optional[Callable[..., int]]
access_dc: Optional[Callable[..., int]]
acquire_wcp: Optional[Callable[..., Any]]
release_wcp: Optional[Callable[..., int]]
fork_wcp: Optional[Callable[..., Any]]
join_wcp: Optional[Callable[..., Any]]
acquire_dc: Optional[Callable[..., Any]]
release_dc: Optional[Callable[..., int]]
fork_dc: Optional[Callable[..., Any]]
join_dc: Optional[Callable[..., Any]]


#: Valid arguments to :func:`set_backend` (``"auto"`` resolves at
#: bind time to ``"compiled"`` when available, else ``"python"``).
BACKENDS = ("auto", "python", "compiled")


def compiled_available() -> bool:
    """Whether the native :mod:`repro.core._kernels` extension imported."""
    return _compiled_mod is not None


def backends() -> Tuple[str, ...]:
    """The backends available in this environment."""
    return ("python", "compiled") if compiled_available() else ("python",)


def active_backend() -> str:
    """The implementation currently live: ``"python"`` or ``"compiled"``."""
    return _active


def set_backend(choice: str) -> str:
    """Bind the kernel layer to ``choice`` and return the active backend.

    ``"auto"`` selects the compiled backend when the extension is
    importable and degrades to pure Python otherwise; ``"python"`` and
    ``"compiled"`` are explicit (``"compiled"`` raises RuntimeError when
    the extension is unavailable rather than silently running the slow
    path — an explicit request must not produce misleading benchmarks).
    Workers and serve shards re-apply the parent's *resolved* backend,
    so a fleet never mixes implementations silently.
    """
    global _active
    if choice == "auto":
        target = "compiled" if _compiled_mod is not None else "python"
    elif choice in ("python", "compiled"):
        if choice == "compiled" and _compiled_mod is None:
            raise RuntimeError(
                "kernels backend 'compiled' requested but the "
                "repro.core._kernels extension is not importable; build it "
                "with `python setup.py build_ext --inplace` (requires a C "
                "compiler) or use --kernels auto")
        target = choice
    else:
        raise ValueError(
            f"unknown kernels backend {choice!r}; expected one of "
            f"'auto', 'python', 'compiled'")
    g = globals()
    for name in _COMPILED_NAMES:
        g[name] = (getattr(_compiled_mod, name) if target == "compiled"
                   else g["py_" + name])
    for name in _PYTHON_ONLY_NAMES:
        g[name] = g["py_" + name]
    for name in _FUSED_NAMES + _SYNC_NAMES:
        g[name] = (getattr(_compiled_mod, name) if target == "compiled"
                   else None)
    _active = target
    return target


#: Environment override consulted once at import; the CLI's --kernels
#: flag calls set_backend() again after argument parsing.
ENV_VAR = "VINDICATOR_KERNELS"

set_backend(os.environ.get(ENV_VAR, "auto"))
