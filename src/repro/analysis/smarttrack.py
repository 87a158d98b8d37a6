"""SmartTrack-style epoch & ownership fast paths for HB, WCP and DC.

:class:`EpochHBDetector`, :class:`EpochWCPDetector` and
:class:`EpochDCDetector` are drop-in replacements for
:class:`~repro.analysis.hb.HBDetector`,
:class:`~repro.analysis.wcp.WCPDetector` and
:class:`~repro.analysis.dc.DCDetector` that report *identical* races
and ``racing_at`` sets (and, for DC, a constraint graph with the same
edge set, kept with program order implicit) while doing substantially
less work per event. All three read one shared per-trace index, so the
lockstep pipeline preprocesses a trace once.
They follow SmartTrack [Roemer, Genç & Bond, PLDI 2020], which ported
FastTrack's [Flanagan & Freund 2009] epoch/ownership ideas to the
predictive analyses, adapted to this repo's exact reference semantics:

* **Dense clocks** — every clock is a plain ``list`` of ints indexed
  by the trace's own thread index (``trace.tid_names``/``tid_index``),
  of one length (the thread count ``T`` of a loaded trace; a growing
  trace doubles it as threads appear), joined by the fused kernels in
  :mod:`repro.core.kernels`. The trace's indexing pass
  (:class:`~repro.core.trace.Trace`'s columns) interns thread ids,
  variables, locks, and volatiles and precomputes each access's
  held-lock index tuple, so the per-event loop never hashes a thread id
  or rebuilds a lock stack.

* **Exclusive/shared variable staging** — a variable accessed by one
  thread only keeps O(1) last-read/last-write fields (the reference
  detector also skips its scan in this case, so outcomes agree
  trivially). The first foreign access *promotes* the variable to
  per-thread maps, preserving the reference's insertion order so the
  scan — and therefore race reporting and forced-ordering order — is
  bit-identical.

* **Epoch gates (HB and DC)** — after promotion, the last write is
  also kept as a FastTrack-style epoch ``t@u``, plus a chained
  single-read epoch for the reads since that write. When the current
  clock covers the write epoch, *every* prior write (and every read up
  to that write) is provably covered, so the scan is skipped in O(1);
  likewise the read scan when the read epoch chain is intact and
  covered. The proof needs every clock component ``c[u] >= t`` to imply
  ``c ⊒`` (u's full post-access clock at time t). Under ``force_order``
  *and* ``transitive_force``, u's post-access clock covers every access
  it race-checked (ordered, or forced by joining the racing prior's
  snapshot), so the implication carries the coverage over. It holds
  when a component can only reach another clock inside a full clock of
  its thread, taken after the access: own advances are monotone, and
  the remaining channels carry whole clocks. For DC those are access
  snapshots, release clocks, rule (a)/(b) records and fork copies. For
  HB they are release copies joined at acquire, fork copies, joined
  child clocks, the volatile accumulators (pointwise joins of whole
  clocks, so their maximal ``u`` component comes from one of u's
  clocks) and forced access snapshots. A snapshot reused across
  self-advances lags only in its own component, which the forcing
  consumer sets to the prior's time before joining. The
  gates check both flags at consult time and fall back to the exact
  scan otherwise. They are *never* used for WCP: the access snapshots
  are P clocks, but rules (a)/(b) join H snapshots into P only, so a P
  component reaching another thread never implies that thread covers
  the source's full P snapshot — the implication fails. (The flags must
  not be flipped mid-trace — the same caveat the reference detectors
  carry.)

* **Lock ownership (DC only)** — rule (b) at a release by the only
  thread that ever acquired the lock is a provable no-op (the thread's
  clock dominates its own past, so its own records join nothing — see
  :meth:`~repro.analysis.sync_structures.LockQueues.apply_rule_b`), so
  the whole queue walk is skipped while the lock stays single-owner.
  Not valid for WCP, where own records feed the left-HB-composition.

* **Version-gated snapshot reuse** — the per-access clock snapshot is a
  ``list.copy()`` taken only when the clock changed since the thread's
  last snapshot (a dirty flag cleared at every non-self-advance
  mutation), mirroring the reference's version-keyed cache with a
  cheaper copy. ``snapshots_copied``/``snapshots_reused`` counters make
  the win measurable (``benchmarks/results/``).

Counters for all of the above are exposed via :meth:`fast_stats` and
published to the :mod:`repro.obs` metrics registry under
``analysis.<relation>_epoch.*``; the :class:`~repro.analysis.races.RaceReport`
counters stay identical to the reference detectors' so full pipeline
documents compare equal modulo timing/metrics.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple, TypeVar

from repro import obs
from repro.analysis.base import Detector
from repro.analysis.races import DynamicRace, RaceReport
from repro.core.events import (CODE_ACQUIRE as _ACQ, CODE_FORK as _FORK,
                               CODE_JOIN as _JOIN, CODE_RELEASE as _REL,
                               CODE_VOLATILE_READ as _VRD,
                               CODE_VOLATILE_WRITE as _VWR,
                               CODE_WRITE as _WRITE, Event, Tid)
from repro.core.exceptions import MalformedTraceError
from repro.core.trace import EventView, Trace
from repro.core import kernels as _k
from repro.core.vectorclock import VectorClock
from repro.analysis.sync_structures import DenseLockQueues, DenseSourceClocks
from repro.graph.constraint_graph import ConstraintGraph
from repro.graph.program_order import ProgramOrderGraph

__all__ = ["EpochDCDetector", "EpochHBDetector", "EpochWCPDetector"]

_T = TypeVar("_T")

#: An access in a variable's per-thread maps: ``(time, eid, snapshot)``.
_Access = Tuple[int, int, Optional[List[int]]]

#: Smallest clock capacity and key stride a growing trace allocates.
_MIN_CAPACITY = 8


class _VarState:
    """Staged per-variable access metadata.

    EXCLUSIVE stage (``owner >= 0``): only ``owner`` has accessed the
    variable; its last read/write live in the O(1) ``x*`` fields.
    SHARED stage (``owner == -1``): per-thread last-access maps
    ``writes``/``reads`` (tid index -> ``(time, eid, snapshot)``,
    insertion-ordered exactly like the reference's ``AccessHistory``)
    plus the epoch gate fields:

    * ``we_time @ we_ti`` — the last write (0 = no write yet);
    * ``rg_*`` — the chained read epoch since the last write:
      ``rg_shared`` marks a broken chain (concurrent reads), after
      which only a write resets it.
    """

    __slots__ = ("owner", "xw_time", "xw_eid", "xw_snap",
                 "xr_time", "xr_eid", "xr_snap", "writes", "reads",
                 "we_time", "we_ti", "rg_time", "rg_ti", "rg_shared")

    def __init__(self, owner: int):
        self.owner = owner
        self.xw_time = 0
        self.xw_eid = -1
        self.xw_snap: Optional[List[int]] = None
        self.xr_time = 0
        self.xr_eid = -1
        self.xr_snap: Optional[List[int]] = None
        self.writes: Optional[Dict[int, _Access]] = None
        self.reads: Optional[Dict[int, _Access]] = None
        self.we_time = 0
        self.we_ti = 0
        self.rg_time = 0
        self.rg_ti = 0
        self.rg_shared = False


class _EpochDetectorBase(Detector):
    """Shared machinery of the epoch-optimised HB/WCP/DC detectors:
    trace preprocessing, staged variable metadata, the gated race check,
    and the dirty-flag snapshot cache."""

    #: Whether the epoch gates may be consulted (HB and DC; see the
    #: module docstring).
    _use_gates = False

    def __init__(self) -> None:
        super().__init__()
        self._tid_index: Dict[Tid, int] = {}
        self._events: Optional[EventView] = None
        self._codes = bytearray()
        self._tix: List[int] = []
        self._tgt: List[int] = []
        self._held: List[Optional[Tuple[int, ...]]] = []
        self._lt: List[int] = []
        #: Length of every dense thread clock: the thread count of a
        #: batch trace, doubled as a growing trace outgrows it.
        self._cap = 0
        #: Key stride of the (lock, variable) rule (a) tables
        #: (``li * _nv + vi``): the variable count of a batch trace,
        #: doubled as a growing trace outgrows it.
        self._nv = 0
        self._vars: List[Optional[_VarState]] = []
        self._snaps: List[Optional[List[int]]] = []
        self._snap_ok: List[bool] = []
        self._pending_vars: List[Dict[int, Tuple[Set[int], Set[int]]]] = []
        self._n_excl_fast = 0
        self._n_w_gate = 0
        self._n_r_gate = 0
        self._n_promotions = 0
        self._n_inflations = 0
        self._n_rule_b_skips = 0
        self._n_lock_transfers = 0
        self._n_snap_copies = 0
        self._n_snap_reuses = 0

    def metric_label(self) -> str:
        return super().metric_label() + "_epoch"

    def begin_trace(self, trace: Trace) -> None:
        super().begin_trace(trace)
        self._tid_index = trace.tid_index
        self._events = trace.events
        self._codes = trace.codes
        self._tix = trace.tix
        self._tgt = trace.tgt
        self._held = trace.held
        self._lt = trace.local_time
        self._cap = len(trace.tid_names)
        self._nv = len(trace.var_names)
        self._vars = [None] * self._nv
        self._snaps = [None] * self._cap
        self._snap_ok = [False] * self._cap
        self._pending_vars = [{} for _ in range(self._cap)]
        self._n_excl_fast = 0
        self._n_w_gate = 0
        self._n_r_gate = 0
        self._n_promotions = 0
        self._n_inflations = 0
        self._n_rule_b_skips = 0
        self._n_lock_transfers = 0
        self._n_snap_copies = 0
        self._n_snap_reuses = 0

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def fast_stats(self) -> Dict[str, int]:
        """Fast-path statistics for the last trace (also published to
        the metrics registry under ``analysis.<label>.*``). These live
        outside the report counters so reports stay bit-identical to
        the reference detectors'."""
        return {
            "epoch_exclusive_hits": self._n_excl_fast,
            "epoch_write_gate_hits": self._n_w_gate,
            "epoch_read_gate_hits": self._n_r_gate,
            "epoch_promotions": self._n_promotions,
            "epoch_read_inflations": self._n_inflations,
            "ownership_rule_b_skips": self._n_rule_b_skips,
            "ownership_lock_transfers": self._n_lock_transfers,
            "snapshots_copied": self._n_snap_copies,
            "snapshots_reused": self._n_snap_reuses,
        }

    def _publish(self, reg: obs.AnyRegistry) -> None:
        super()._publish(reg)
        label = self.metric_label()
        for name, value in self.fast_stats().items():
            reg.add(f"analysis.{label}.{name}", value)

    # ------------------------------------------------------------------
    # A growing trace (serve's StreamingTrace)
    # ------------------------------------------------------------------
    def sync_tables(self) -> None:
        """Size the per-table state to the bound trace's tables.

        A batch ``Trace`` is complete at :meth:`begin_trace`, so the
        batch path never calls this. A growing trace
        (:class:`~repro.serve.streaming.StreamingTrace`) interns
        threads, variables, locks and volatiles as they first appear;
        its session calls this after each event that grew a table and
        before the detectors handle it. Thread clocks grow by capacity
        doubling: every clock that is joined into or indexed by a
        thread index is kept at capacity, while snapshots taken at a
        smaller capacity stay valid join sources (their missing
        components are zero).
        """
        trace = self.trace
        assert trace is not None, "begin_trace was never called"
        n = len(trace.tid_names)
        have = len(self._snaps)
        if n > have:
            if n > self._cap:
                cap = max(n, 2 * self._cap, _MIN_CAPACITY)
                for clock in self._full_clocks():
                    clock.extend([0] * (cap - len(clock)))
                self._cap = cap
            grow = n - have
            self._snaps.extend([None] * grow)
            self._snap_ok.extend([False] * grow)
            self._pending_vars.extend({} for _ in range(grow))
            self._grow_threads(grow)
        nv = len(trace.var_names)
        if nv > len(self._vars):
            self._vars.extend([None] * (nv - len(self._vars)))
            if nv > self._nv:
                stride = max(nv, 2 * self._nv, _MIN_CAPACITY)
                self._restride(self._nv, stride)
                self._nv = stride
        self._grow_sync(len(trace.lock_names), len(trace.vol_names))

    def _full_clocks(self) -> List[List[int]]:
        """The clocks kept at capacity (see :meth:`sync_tables`)."""
        raise NotImplementedError

    def _grow_threads(self, grow: int) -> None:
        """Extend the subclass's per-thread arrays by ``grow`` slots."""
        raise NotImplementedError

    def _restride(self, old: int, new: int) -> None:
        """Re-key the (lock, variable) tables from stride ``old`` to
        ``new`` (detectors without such tables have nothing to do)."""

    def _grow_sync(self, n_locks: int, n_vols: int) -> None:
        """Extend the per-lock and per-volatile arrays to the given
        table sizes."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Streaming metadata GC (repro.serve.gc, which states the criterion)
    # ------------------------------------------------------------------
    def gc_cover_clocks(self, ti: int) -> List[List[int]]:
        """The clocks whose component-wise min is live thread ``ti``'s
        cover under this relation (the detector's own lists; missing
        trailing components read as 0); empty when the detector holds
        no clock for ``ti`` yet."""
        raise NotImplementedError

    def gc_collect(self, floor: List[float], dead: Set[int]) -> int:
        """Retire access metadata and synchronisation records no live
        thread can observe again; returns the entries dropped.

        An exclusive variable whose owner's last accesses are at or
        below the owner's floor, or a shared one whose maps empty, is
        forgotten outright: its next access starts it afresh as
        exclusive, which sees no racing prior, exactly as the scan over
        the retired (covered) entries would have. ``floor`` and ``dead``
        are by thread index.
        """
        retired = 0
        states = self._vars
        for vi, st in enumerate(states):
            if st is None:
                continue
            owner = st.owner
            if owner >= 0:
                if st.xw_time <= floor[owner] and st.xr_time <= floor[owner]:
                    retired += (st.xw_time > 0) + (st.xr_time > 0)
                    states[vi] = None
                continue
            writes, reads = st.writes, st.reads
            assert writes is not None and reads is not None
            for table in (writes, reads):
                drop = [u for u, rec in table.items() if rec[0] <= floor[u]]
                for u in drop:
                    del table[u]
                retired += len(drop)
            if not writes and not reads:
                states[vi] = None
        return retired + self._gc_collect_sync(floor, dead)

    def _gc_collect_sync(self, floor: List[float], dead: Set[int]) -> int:
        """Retire the subclass's synchronisation records (rule (a)/(b)
        and volatile tables) below ``floor`` (indexed by thread)."""
        return 0

    def gc_drop_thread(self, ti: int) -> None:
        """Forget a joined thread's clocks, snapshot and pending
        critical-section variables."""
        self._snaps[ti] = None
        self._snap_ok[ti] = False
        self._pending_vars[ti] = {}
        self._drop_thread(ti)

    def _drop_thread(self, ti: int) -> None:
        raise NotImplementedError

    def gc_live_entries(self) -> int:
        """Access-metadata entries currently held (bounded-memory
        tests)."""
        live = 0
        for st in self._vars:
            if st is None:
                continue
            if st.owner >= 0:
                live += (st.xw_time > 0) + (st.xr_time > 0)
            else:
                assert st.writes is not None and st.reads is not None
                live += len(st.writes) + len(st.reads)
        return live

    # ------------------------------------------------------------------
    # Dispatch (kind codes from the trace's column; begin/end only advance)
    # ------------------------------------------------------------------
    def handle(self, eid: int) -> None:
        """Process event ``eid`` of the bound trace, read from its
        columns."""
        code = self._codes[eid]
        if code <= _WRITE:
            self._access(eid, code == _WRITE)
        elif code == _ACQ:
            self._acquire(eid)
        elif code == _REL:
            self._release(eid)
        elif code == _FORK:
            self._fork(eid)
        elif code == _JOIN:
            self._join(eid)
        elif code == _VWR:
            self._volatile_write(eid)
        elif code == _VRD:
            self._volatile_read(eid)
        else:
            self._other(eid)

    def _access(self, eid: int, is_write: bool) -> None:
        raise NotImplementedError

    def _acquire(self, eid: int) -> None:
        raise NotImplementedError

    def _release(self, eid: int) -> None:
        raise NotImplementedError

    def _fork(self, eid: int) -> None:
        raise NotImplementedError

    def _join(self, eid: int) -> None:
        raise NotImplementedError

    def _volatile_write(self, eid: int) -> None:
        raise NotImplementedError

    def _volatile_read(self, eid: int) -> None:
        raise NotImplementedError

    def _other(self, eid: int) -> None:
        raise NotImplementedError

    # Detector's Event hooks: an event is handled by its eid.
    def on_read(self, e: Event) -> None:
        self.handle(e.eid)

    on_write = on_acquire = on_release = on_read

    def _no_matching_acquire(self, eid: int) -> MalformedTraceError:
        """The error for a release the lock's queues did not see
        acquired by its thread (a stream fed out of order)."""
        assert self._events is not None
        e = self._events[eid]
        return MalformedTraceError(
            f"{e}: releases lock {e.target!r} with no matching acquire "
            f"by thread {e.tid!r}",
            event_index=eid,
        )

    # ------------------------------------------------------------------
    # Snapshots (version-gated reuse via a per-thread dirty flag)
    # ------------------------------------------------------------------
    def _take_snapshot(self, ti: int, values: List[int]) -> Optional[List[int]]:
        """The access-history snapshot for thread ``ti``: None unless
        transitive forcing could consume it (mirroring the reference),
        otherwise the cached copy while the clock is unchanged since the
        thread's last snapshot (self-advances excepted — consumers
        re-derive the own component before joining, see
        ``VectorClock.advance``)."""
        if self.force_order and self.transitive_force:
            if self._snap_ok[ti]:
                self._n_snap_reuses += 1
                snap = self._snaps[ti]
                assert snap is not None
                return snap
            snap = values.copy()
            self._snaps[ti] = snap
            self._snap_ok[ti] = True
            self._n_snap_copies += 1
            return snap
        return None

    # ------------------------------------------------------------------
    # Variable staging
    # ------------------------------------------------------------------
    def _promote(self, st: _VarState) -> None:
        """EXCLUSIVE -> SHARED: materialise the owner's last accesses
        into the per-thread maps (owner first, preserving the
        reference's insertion order) and seed the epoch gates."""
        owner = st.owner
        st.owner = -1
        writes: Dict[int, _Access] = {}
        reads: Dict[int, _Access] = {}
        st.writes = writes
        st.reads = reads
        xw_t = st.xw_time
        if xw_t:
            writes[owner] = (xw_t, st.xw_eid, st.xw_snap)
            st.we_time = xw_t
            st.we_ti = owner
        xr_t = st.xr_time
        if xr_t:
            reads[owner] = (xr_t, st.xr_eid, st.xr_snap)
            if xr_t > xw_t:
                st.rg_time = xr_t
                st.rg_ti = owner
        st.xw_snap = st.xr_snap = None
        self._n_promotions += 1

    # ------------------------------------------------------------------
    # The race check (exact mirror of Detector.check_access outcomes).
    # The exclusive fast path is inlined into each subclass's
    # _access — the overwhelmingly common case pays no extra call —
    # so this only handles SHARED-stage variables.
    # ------------------------------------------------------------------
    def _check_shared(self, eid: int, ti: int, t: int,
                      values: List[int], is_write: bool,
                      st: _VarState) -> None:
        if st.owner >= 0:
            self._promote(st)
        writes = st.writes
        reads = st.reads
        assert writes is not None and reads is not None
        use_gates = (self._use_gates and self.force_order
                     and self.transitive_force)
        # One fused kernel call covers the write-epoch gate (the last
        # write being covered implies — by the transitive-force
        # propagation invariant — every prior write and every read up to
        # it is too), the chained-read-epoch gate, and the exact
        # writes-then-reads table scans when a gate does not apply.
        racing, w_gate, r_gate = _k.gated_scan(
            writes, reads if is_write else None, ti, values, use_gates,
            st.we_time, st.we_ti, st.rg_time, st.rg_ti, st.rg_shared)
        if w_gate:
            self._n_w_gate += 1
        if r_gate:
            self._n_r_gate += 1
        if racing is not None:
            self.racing_at[eid] = frozenset(rec[1] for _, rec in racing)
            shortest = max(rec[1] for _, rec in racing)
            assert self._events is not None
            race = DynamicRace.between(self._events, shortest, eid,
                                       self.relation)
            assert self.report is not None
            self.report.races.append(race)
            if self.force_order:
                transitive = self.transitive_force
                for u, rec in racing:
                    prior_t = rec[0]
                    if values[u] < prior_t:
                        values[u] = prior_t
                        if transitive and rec[2] is not None:
                            _k.join_into_list(values, rec[2])
                            self._n_joins += 1
                        self._snap_ok[ti] = False
                        self._forced_order_dense(rec[1], eid, rec[2])
        snap2 = self._take_snapshot(ti, values)
        # Most-recent-last re-insertion, matching Detector.check_access:
        # the force loop above consumes `racing` in table order, so table
        # order must be a pure function of the access sequence.
        if is_write:
            _k.record_latest(writes, ti, (t, eid, snap2))
            if self._use_gates:
                st.we_time = t
                st.we_ti = ti
                st.rg_time = 0
                st.rg_shared = False
        else:
            _k.record_latest(reads, ti, (t, eid, snap2))
            if self._use_gates and not st.rg_shared:
                rg_t = st.rg_time
                if rg_t == 0 or values[st.rg_ti] >= rg_t:
                    st.rg_time = t
                    st.rg_ti = ti
                else:
                    st.rg_shared = True
                    self._n_inflations += 1

    def _forced_order_dense(self, prior: int, eid: int,
                            snapshot: Optional[List[int]]) -> None:
        """Dense analog of :meth:`Detector.on_forced_order`, called by
        :meth:`_check_shared` with the racing prior's eid and stored
        snapshot list after the force was joined into the analysis
        clock."""

    # ------------------------------------------------------------------
    # Queries shared by the subclasses
    # ------------------------------------------------------------------
    def _clock_values_of(self, tid: Tid) -> Optional[List[int]]:
        raise NotImplementedError

    def clock_of(self, tid: Tid) -> Optional[VectorClock]:
        """A copy of the thread's current analysis clock (None before
        its first event), mirroring the reference API."""
        values = self._clock_values_of(tid)
        if values is None:
            return None
        assert self.trace is not None
        return VectorClock({u: t for u, t in zip(self.trace.tid_names, values)
                            if t})

    def ordered_to_current(self, prior: Event, tid: Tid) -> bool:
        if prior.tid == tid:
            return True
        values = self._clock_values_of(tid)
        if values is None:
            return False
        return values[self._tix[prior.eid]] >= self._lt[prior.eid]


class EpochHBDetector(_EpochDetectorBase):
    """Epoch-optimised HB detector (verdict-identical to
    :class:`~repro.analysis.hb.HBDetector`, ``racing_at`` sets and
    ``vc_joins`` included).

    One dense clock per thread; lock, fork and volatile state are dense
    lists joined exactly as the reference joins its dict clocks. HB
    enables the epoch gates: every channel that carries another
    thread's component — release copies, fork copies, joined child
    clocks, the volatile accumulators and transitively forced access
    snapshots — carries that thread's full clock (see the module
    docstring). There is no rule (b), so no ownership skip.
    """

    relation = "HB"
    _use_gates = True

    def __init__(self) -> None:
        super().__init__()
        self._c: List[Optional[List[int]]] = []
        self._lock_c: List[Optional[List[int]]] = []
        self._vol_writes: List[Optional[List[int]]] = []
        self._vol_reads: List[Optional[List[int]]] = []
        self._pending_fork: Dict[int, List[int]] = {}

    def begin_trace(self, trace: Trace) -> None:
        super().begin_trace(trace)
        self._c = [None] * self._cap
        self._lock_c = [None] * len(trace.lock_names)
        n_vols = len(trace.vol_names)
        self._vol_writes = [None] * n_vols
        self._vol_reads = [None] * n_vols
        self._pending_fork = {}

    def _clock_values_of(self, tid: Tid) -> Optional[List[int]]:
        idx = self._tid_index.get(tid)
        return None if idx is None else self._c[idx]

    # ------------------------------------------------------------------
    # A growing trace and streaming GC
    # ------------------------------------------------------------------
    def _full_clocks(self) -> List[List[int]]:
        # The volatile read accumulators are join destinations.
        return [c for c in (*self._c, *self._vol_reads) if c is not None]

    def _grow_threads(self, grow: int) -> None:
        self._c.extend([None] * grow)

    def _grow_sync(self, n_locks: int, n_vols: int) -> None:
        _extend(self._lock_c, n_locks, None)
        _extend(self._vol_writes, n_vols, None)
        _extend(self._vol_reads, n_vols, None)

    def gc_cover_clocks(self, ti: int) -> List[List[int]]:
        c = self._c[ti]
        if c is not None:
            return [c]
        pending = self._pending_fork.get(ti)
        return [] if pending is None else [pending]

    def _drop_thread(self, ti: int) -> None:
        self._c[ti] = None
        self._pending_fork.pop(ti, None)

    # ------------------------------------------------------------------
    # Clock plumbing
    # ------------------------------------------------------------------
    def _advance(self, ti: int, t: int) -> List[int]:
        """Advance the thread's clock to this event and consume any
        pending fork edge."""
        c = self._c[ti]
        if c is None:
            c = self._c[ti] = [0] * self._cap
        c[ti] = t
        if self._pending_fork:
            parent = self._pending_fork.pop(ti, None)
            if parent is not None:
                if _k.join_into_list_changed(c, parent):
                    self._snap_ok[ti] = False
                self._n_joins += 1
        return c

    def _other(self, eid: int) -> None:
        self._advance(self._tix[eid], self._lt[eid])

    # ------------------------------------------------------------------
    # Accesses
    # ------------------------------------------------------------------
    def _access(self, eid: int, is_write: bool) -> None:
        ti = self._tix[eid]
        t = self._lt[eid]
        # Inlined _advance: one method call per access is measurable.
        c = self._c[ti]
        if c is None:
            c = self._c[ti] = [0] * self._cap
        c[ti] = t
        if self._pending_fork:
            parent = self._pending_fork.pop(ti, None)
            if parent is not None:
                if _k.join_into_list_changed(c, parent):
                    self._snap_ok[ti] = False
                self._n_joins += 1
        # Inlined race-check entry: the exclusive (single-accessor) fast
        # path, the overwhelmingly common case.
        vi = self._tgt[eid]
        st = self._vars[vi]
        if st is None:
            st = self._vars[vi] = _VarState(ti)
        if st.owner == ti:
            self._n_excl_fast += 1
            if self.force_order and self.transitive_force:
                if self._snap_ok[ti]:
                    self._n_snap_reuses += 1
                    snap = self._snaps[ti]
                else:
                    snap = c.copy()
                    self._snaps[ti] = snap
                    self._snap_ok[ti] = True
                    self._n_snap_copies += 1
            else:
                snap = None
            if is_write:
                st.xw_time = t
                st.xw_eid = eid
                st.xw_snap = snap
            else:
                st.xr_time = t
                st.xr_eid = eid
                st.xr_snap = snap
            return
        self._check_shared(eid, ti, t, c, is_write, st)

    # ------------------------------------------------------------------
    # Synchronisation: release→acquire, fork/join and volatile orders
    # ------------------------------------------------------------------
    def _acquire(self, eid: int) -> None:
        ti = self._tix[eid]
        c = self._advance(ti, self._lt[eid])
        released = self._lock_c[self._tgt[eid]]
        if released is not None:
            if _k.join_into_list_changed(c, released):
                self._snap_ok[ti] = False
            self._n_joins += 1

    def _release(self, eid: int) -> None:
        c = self._advance(self._tix[eid], self._lt[eid])
        self._lock_c[self._tgt[eid]] = c.copy()

    def _fork(self, eid: int) -> None:
        c = self._advance(self._tix[eid], self._lt[eid])
        self._pending_fork[self._tgt[eid]] = c.copy()

    def _join(self, eid: int) -> None:
        ti = self._tix[eid]
        c = self._advance(ti, self._lt[eid])
        ci = self._tgt[eid]
        parent = self._pending_fork.pop(ci, None)
        if parent is not None:
            # Child never executed an event: the fork ordering still
            # flows through the (empty) child into the join.
            if _k.join_into_list_changed(c, parent):
                self._snap_ok[ti] = False
            self._n_joins += 1
        child = self._c[ci]
        if child is not None:
            if _k.join_into_list_changed(c, child):
                self._snap_ok[ti] = False
            self._n_joins += 1

    def _volatile_write(self, eid: int) -> None:
        ti = self._tix[eid]
        c = self._advance(ti, self._lt[eid])
        xi = self._tgt[eid]
        for prior in (self._vol_writes[xi], self._vol_reads[xi]):
            if prior is not None and _k.join_into_list_changed(c, prior):
                self._snap_ok[ti] = False
        # c now covers the accumulated writes, so their join with c is c.
        self._vol_writes[xi] = c.copy()

    def _volatile_read(self, eid: int) -> None:
        ti = self._tix[eid]
        c = self._advance(ti, self._lt[eid])
        xi = self._tgt[eid]
        writes = self._vol_writes[xi]
        if writes is not None and _k.join_into_list_changed(c, writes):
            self._snap_ok[ti] = False
        reads = self._vol_reads[xi]
        if reads is None:
            self._vol_reads[xi] = c.copy()
        else:
            _k.join_into_list(reads, c)


def _extend(values: List[_T], n: int, fill: _T) -> None:
    """Pad ``values`` with ``fill`` to length ``n`` (a growing table)."""
    if n > len(values):
        values.extend([fill] * (n - len(values)))


def _restrided(table: Dict[int, DenseSourceClocks], old: int,
               new: int) -> Dict[int, DenseSourceClocks]:
    """``table`` re-keyed from ``li * old + vi`` to ``li * new + vi``,
    in the same order."""
    if not old:
        return table
    return {key // old * new + key % old: value
            for key, value in table.items()}


class _RuleTablesBase(_EpochDetectorBase):
    """The rule (a)/(b) and volatile tables WCP and DC share, with
    their growth on a growing trace and their streaming GC."""

    def __init__(self) -> None:
        super().__init__()
        self._queues: List[Optional[DenseLockQueues]] = []
        self._cs_writes: Dict[int, DenseSourceClocks] = {}
        self._cs_reads: Dict[int, DenseSourceClocks] = {}
        self._vol_writes: List[Optional[DenseSourceClocks]] = []
        self._vol_reads: List[Optional[DenseSourceClocks]] = []

    def begin_trace(self, trace: Trace) -> None:
        super().begin_trace(trace)
        self._queues = [None] * len(trace.lock_names)
        self._cs_writes = {}
        self._cs_reads = {}
        n_vols = len(trace.vol_names)
        self._vol_writes = [None] * n_vols
        self._vol_reads = [None] * n_vols

    def _own_clock(self, ti: int) -> Optional[List[int]]:
        """The clock a thread applies rule (b) with (its own records
        retire only once this dominates them)."""
        raise NotImplementedError

    def _restride(self, old: int, new: int) -> None:
        self._cs_writes = _restrided(self._cs_writes, old, new)
        self._cs_reads = _restrided(self._cs_reads, old, new)

    def _grow_sync(self, n_locks: int, n_vols: int) -> None:
        _extend(self._queues, n_locks, None)
        _extend(self._vol_writes, n_vols, None)
        _extend(self._vol_reads, n_vols, None)

    def _gc_collect_sync(self, floor: List[float], dead: Set[int]) -> int:
        # Tables and queues that empty are forgotten: lookups are by
        # index or key, so no iteration order the analyses read moves.
        retired = 0
        for keyed in (self._cs_writes, self._cs_reads):
            for key in list(keyed):
                source = keyed[key]
                retired += source.gc_retire(floor)
                if not source.entries:
                    del keyed[key]
        for tables in (self._vol_writes, self._vol_reads):
            for xi, table in enumerate(tables):
                if table is not None:
                    retired += table.gc_retire(floor)
                    if not table.entries:
                        tables[xi] = None
        for li, queues in enumerate(self._queues):
            if queues is not None:
                retired += queues.gc_retire(floor, dead, self._own_clock)
                if (not queues.records and not queues.cursors
                        and queues.open_rec is None):
                    self._queues[li] = None
        return retired


class EpochWCPDetector(_RuleTablesBase):
    """Epoch-optimised WCP detector (verdict-identical to
    :class:`~repro.analysis.wcp.WCPDetector`).

    Uses the dense kernel, exclusive-variable staging, precomputed held
    locks, and int-keyed rule (a) tables. The DC-only epoch gates and
    lock-ownership skip are *not* applied — both are unsound for WCP
    (see the module docstring).
    """

    relation = "WCP"
    _use_gates = False

    def __init__(self) -> None:
        super().__init__()
        self._h: List[Optional[List[int]]] = []
        self._p: List[Optional[List[int]]] = []
        self._lock_h: List[Optional[List[int]]] = []
        self._lock_p: List[Optional[List[int]]] = []
        self._pending_fork: Dict[int, List[int]] = {}

    def begin_trace(self, trace: Trace) -> None:
        super().begin_trace(trace)
        self._h = [None] * self._cap
        self._p = [None] * self._cap
        n_locks = len(trace.lock_names)
        self._lock_h = [None] * n_locks
        self._lock_p = [None] * n_locks
        self._pending_fork = {}

    def _clock_values_of(self, tid: Tid) -> Optional[List[int]]:
        idx = self._tid_index.get(tid)
        return None if idx is None else self._p[idx]

    # ------------------------------------------------------------------
    # A growing trace and streaming GC
    # ------------------------------------------------------------------
    def _full_clocks(self) -> List[List[int]]:
        return [c for c in (*self._h, *self._p) if c is not None]

    def _grow_threads(self, grow: int) -> None:
        self._h.extend([None] * grow)
        self._p.extend([None] * grow)

    def _grow_sync(self, n_locks: int, n_vols: int) -> None:
        super()._grow_sync(n_locks, n_vols)
        _extend(self._lock_h, n_locks, None)
        _extend(self._lock_p, n_locks, None)

    def _own_clock(self, ti: int) -> Optional[List[int]]:
        # P lacks own program order, so own records are real rule (b)
        # joins until P dominates them.
        return self._p[ti]

    def gc_cover_clocks(self, ti: int) -> List[List[int]]:
        # Both clocks must cover an entry before it can retire: rule
        # (a)/(b) and volatile sources join into P *and* H, and a forked
        # child's initial P is the parent's H snapshot.
        h, p = self._h[ti], self._p[ti]
        if h is not None and p is not None:
            return [h, p]
        pending = self._pending_fork.get(ti)
        return [] if pending is None else [pending]

    def _drop_thread(self, ti: int) -> None:
        self._h[ti] = None
        self._p[ti] = None
        self._pending_fork.pop(ti, None)

    # ------------------------------------------------------------------
    # Clock plumbing
    # ------------------------------------------------------------------
    def _advance(self, ti: int, t: int) -> Tuple[List[int], List[int]]:
        """Advance H to this event (P carries no own program order) and
        consume any pending fork edge."""
        h = self._h[ti]
        if h is None:
            h = self._h[ti] = [0] * self._cap
            self._p[ti] = [0] * self._cap
        h[ti] = t
        p = self._p[ti]
        assert p is not None
        if self._pending_fork:
            parent = self._pending_fork.pop(ti, None)
            if parent is not None:
                _k.join_into_list(h, parent)
                if _k.join_into_list_changed(p, parent):
                    self._snap_ok[ti] = False
                self._n_joins += 2
        return h, p

    def _other(self, eid: int) -> None:
        self._advance(self._tix[eid], self._lt[eid])

    # ------------------------------------------------------------------
    # Accesses
    # ------------------------------------------------------------------
    def _access(self, eid: int, is_write: bool) -> None:
        ti = self._tix[eid]
        t = self._lt[eid]
        # Inlined _advance: one method call per access is measurable.
        h = self._h[ti]
        if h is None:
            h = self._h[ti] = [0] * self._cap
            self._p[ti] = [0] * self._cap
        h[ti] = t
        p = self._p[ti]
        assert p is not None
        if self._pending_fork:
            parent = self._pending_fork.pop(ti, None)
            if parent is not None:
                _k.join_into_list(h, parent)
                if _k.join_into_list_changed(p, parent):
                    self._snap_ok[ti] = False
                self._n_joins += 2
        vi = self._tgt[eid]
        held = self._held[eid]
        if held is not None:
            # Rule (a): join the recorded conflicting-critical-section
            # clocks, record this access as pending for the release.
            nv = self._nv
            cs_writes = self._cs_writes
            pend = self._pending_vars[ti]
            snap_ok = self._snap_ok
            for li in held:
                key = li * nv + vi
                src = cs_writes.get(key)
                if src is not None and _k.source_join_into(
                        src.entries, p, ti) is not None:
                    snap_ok[ti] = False
                if is_write:
                    src = self._cs_reads.get(key)
                    if src is not None and _k.source_join_into(
                            src.entries, p, ti) is not None:
                        snap_ok[ti] = False
                cur = pend.get(li)
                if cur is None:
                    cur = pend[li] = (set(), set())
                cur[is_write].add(vi)
        # Inlined race-check entry: the exclusive (single-accessor) fast
        # path, the overwhelmingly common case.
        st = self._vars[vi]
        if st is None:
            st = self._vars[vi] = _VarState(ti)
        if st.owner == ti:
            self._n_excl_fast += 1
            if self.force_order and self.transitive_force:
                if self._snap_ok[ti]:
                    self._n_snap_reuses += 1
                    snap = self._snaps[ti]
                else:
                    snap = p.copy()
                    self._snaps[ti] = snap
                    self._snap_ok[ti] = True
                    self._n_snap_copies += 1
            else:
                snap = None
            if is_write:
                st.xw_time = t
                st.xw_eid = eid
                st.xw_snap = snap
            else:
                st.xr_time = t
                st.xr_eid = eid
                st.xr_snap = snap
            return
        self._check_shared(eid, ti, t, p, is_write, st)

    def _forced_order_dense(self, prior: int, eid: int,
                            snapshot: Optional[List[int]]) -> None:
        # Forced race edges are hard orderings: mirror them into H as
        # well as P so they survive WCP's H-only propagation channels
        # (see WCPDetector.on_forced_order for the full rationale).
        h = self._h[self._tix[eid]]
        assert h is not None
        u = self._tix[prior]
        prior_t = self._lt[prior]
        if h[u] < prior_t:
            h[u] = prior_t
        if self.transitive_force and snapshot is not None:
            _k.join_into_list(h, snapshot)
            self._n_joins += 1

    # ------------------------------------------------------------------
    # Lock operations
    # ------------------------------------------------------------------
    def _acquire(self, eid: int) -> None:
        ti = self._tix[eid]
        t = self._lt[eid]
        h, p = self._advance(ti, t)
        li = self._tgt[eid]
        lock_h = self._lock_h[li]
        if lock_h is not None:
            _k.join_into_list(h, lock_h)
            lock_p = self._lock_p[li]
            assert lock_p is not None
            if _k.join_into_list_changed(p, lock_p):  # right HB composition
                self._snap_ok[ti] = False
            self._n_joins += 2
        queues = self._queues[li]
        if queues is None:
            queues = self._queues[li] = DenseLockQueues()
        queues.on_acquire(ti, t)

    def _release(self, eid: int) -> None:
        ti = self._tix[eid]
        t = self._lt[eid]
        h, p = self._advance(ti, t)
        li = self._tgt[eid]
        queues = self._queues[li]
        if queues is None or queues.open_ti != ti:
            # As in the reference detector: a streamed release without a
            # matching acquire is a malformed trace, not a KeyError.
            raise self._no_matching_acquire(eid)
        if queues.apply_rule_b(ti, p) is not None:
            self._snap_ok[ti] = False
        h_snapshot = h.copy()
        pending = self._pending_vars[ti].pop(li, None)
        if pending is not None:
            read_vars, written_vars = pending
            nv = self._nv
            for vi in written_vars:
                table = self._cs_writes.get(li * nv + vi)
                if table is None:
                    table = self._cs_writes[li * nv + vi] = DenseSourceClocks()
                table.record(ti, eid, t, h_snapshot)
            for vi in read_vars:
                table = self._cs_reads.get(li * nv + vi)
                if table is None:
                    table = self._cs_reads[li * nv + vi] = DenseSourceClocks()
                table.record(ti, eid, t, h_snapshot)
        queues.on_release(eid, t, h_snapshot)
        self._lock_h[li] = h_snapshot
        self._lock_p[li] = p.copy()

    # ------------------------------------------------------------------
    # Fork / join / volatiles (hard WCP edges; H snapshots joined into P
    # by rule (c)'s left composition — see the reference detector)
    # ------------------------------------------------------------------
    def _fork(self, eid: int) -> None:
        h, _ = self._advance(self._tix[eid], self._lt[eid])
        self._pending_fork[self._tgt[eid]] = h.copy()

    def _join(self, eid: int) -> None:
        ti = self._tix[eid]
        h, p = self._advance(ti, self._lt[eid])
        ci = self._tgt[eid]
        parent = self._pending_fork.pop(ci, None)
        if parent is not None:
            # Child never executed an event: the fork ordering still
            # flows through the (empty) child into the join.
            _k.join_into_list(h, parent)
            if _k.join_into_list_changed(p, parent):
                self._snap_ok[ti] = False
            self._n_joins += 2
        child_h = self._h[ci]
        if child_h is not None:
            _k.join_into_list(h, child_h)
            if _k.join_into_list_changed(p, child_h):
                self._snap_ok[ti] = False
            self._n_joins += 2

    def _volatile_write(self, eid: int) -> None:
        ti = self._tix[eid]
        t = self._lt[eid]
        h, p = self._advance(ti, t)
        xi = self._tgt[eid]
        writes = self._vol_writes[xi]
        if writes is None:
            writes = self._vol_writes[xi] = DenseSourceClocks()
        reads = self._vol_reads[xi]
        if reads is None:
            reads = self._vol_reads[xi] = DenseSourceClocks()
        for table in (writes, reads):
            table.join_into(h, ti)
            if table.join_into(p, ti) is not None:
                self._snap_ok[ti] = False
        writes.record(ti, eid, t, h.copy())

    def _volatile_read(self, eid: int) -> None:
        ti = self._tix[eid]
        t = self._lt[eid]
        h, p = self._advance(ti, t)
        xi = self._tgt[eid]
        writes = self._vol_writes[xi]
        if writes is not None and writes.entries:
            writes.join_into(h, ti)
            if writes.join_into(p, ti) is not None:
                self._snap_ok[ti] = False
        reads = self._vol_reads[xi]
        if reads is None:
            reads = self._vol_reads[xi] = DenseSourceClocks()
        reads.record(ti, eid, t, h.copy())


class EpochDCDetector(_RuleTablesBase):
    """Epoch-optimised DC detector (verdict-identical to
    :class:`~repro.analysis.dc.DCDetector`, with the same graph edge
    set).

    On top of the shared fast paths, DC enables the epoch gates (valid
    because DC propagates full post-force snapshots when transitive
    forcing is on) and the single-owner rule (b) skip (valid because a
    DC clock dominates its own thread's past).

    Args:
        build_graph: Build the constraint graph ``G`` alongside the
            clocks, as a :class:`~repro.graph.program_order.ProgramOrderGraph`
            holding the reference detector's edges other than program
            order, which the trace implies.
    """

    relation = "DC"
    _use_gates = True

    def __init__(self, build_graph: bool = True):
        super().__init__()
        self.build_graph = build_graph
        self.graph: ConstraintGraph = ConstraintGraph()
        self._values: List[Optional[List[int]]] = []
        self._pending_fork: Dict[int, Tuple[int, List[int]]] = {}
        self._last_event: List[int] = []
        self._n_graph_edges = 0

    def begin_trace(self, trace: Trace) -> None:
        super().begin_trace(trace)
        # Program order is the trace's own, so the graph stores only
        # the edges this detector adds. With graph building off it
        # stays an empty plain graph.
        self.graph = (ProgramOrderGraph(trace) if self.build_graph
                      else ConstraintGraph())
        self._n_graph_edges = 0
        self._values = [None] * self._cap
        self._pending_fork = {}
        self._last_event = [-1] * self._cap

    def finish(self) -> RaceReport:
        assert self.report is not None, "begin_trace was never called"
        if self._n_graph_edges:
            counters = self.report.counters
            counters["graph_edges"] = (
                counters.get("graph_edges", 0) + self._n_graph_edges)
            self._n_graph_edges = 0
        return super().finish()

    def _clock_values_of(self, tid: Tid) -> Optional[List[int]]:
        idx = self._tid_index.get(tid)
        return None if idx is None else self._values[idx]

    # ------------------------------------------------------------------
    # A growing trace and streaming GC
    # ------------------------------------------------------------------
    def _full_clocks(self) -> List[List[int]]:
        return [c for c in self._values if c is not None]

    def _grow_threads(self, grow: int) -> None:
        self._values.extend([None] * grow)
        self._last_event.extend([-1] * grow)

    def _own_clock(self, ti: int) -> Optional[List[int]]:
        # A DC clock dominates its own thread's past, so own records
        # join nothing: the dominance check always passes.
        return self._values[ti]

    def gc_cover_clocks(self, ti: int) -> List[List[int]]:
        values = self._values[ti]
        if values is not None:
            return [values]
        pending = self._pending_fork.get(ti)
        return [] if pending is None else [pending[1]]

    def _drop_thread(self, ti: int) -> None:
        self._values[ti] = None
        self._pending_fork.pop(ti, None)
        self._last_event[ti] = -1

    # ------------------------------------------------------------------
    # Clock / graph plumbing
    # ------------------------------------------------------------------
    def _advance(self, eid: int, ti: int, t: int) -> List[int]:
        values = self._values[ti]
        if values is None:
            values = self._values[ti] = [0] * self._cap
        values[ti] = t
        if self._pending_fork:
            pending = self._pending_fork.pop(ti, None)
            if pending is not None:
                fork_eid, parent = pending
                if _k.join_into_list_changed(values, parent):
                    self._snap_ok[ti] = False
                self._n_joins += 1
                self._add_edge(fork_eid, eid)
        self._last_event[ti] = eid
        return values

    def _add_edge(self, src: int, dst: int) -> None:
        if self.build_graph:
            self.graph.add_edge(src, dst)
            self._n_graph_edges += 1

    def _forced_order_dense(self, prior: int, eid: int,
                            snapshot: Optional[List[int]]) -> None:
        # The snapshot was already joined by _check_shared; DC's single
        # clock carries it everywhere, so only the graph needs the edge.
        self._add_edge(prior, eid)
        self.bump("forced_orders")

    def _other(self, eid: int) -> None:
        self._advance(eid, self._tix[eid], self._lt[eid])

    # ------------------------------------------------------------------
    # Accesses
    # ------------------------------------------------------------------
    def _access(self, eid: int, is_write: bool) -> None:
        ti = self._tix[eid]
        t = self._lt[eid]
        # Inlined _advance: one method call per access is measurable.
        values = self._values[ti]
        if values is None:
            values = self._values[ti] = [0] * self._cap
        values[ti] = t
        if self._pending_fork:
            pending = self._pending_fork.pop(ti, None)
            if pending is not None:
                fork_eid, parent = pending
                if _k.join_into_list_changed(values, parent):
                    self._snap_ok[ti] = False
                self._n_joins += 1
                self._add_edge(fork_eid, eid)
        self._last_event[ti] = eid
        vi = self._tgt[eid]
        held = self._held[eid]
        if held is not None:
            nv = self._nv
            cs_writes = self._cs_writes
            pend = self._pending_vars[ti]
            for li in held:
                key = li * nv + vi
                src = cs_writes.get(key)
                if src is not None:
                    sources = _k.source_join_into(src.entries, values, ti)
                    if sources is not None:
                        self._snap_ok[ti] = False
                        for s in sources:
                            self._add_edge(s, eid)
                if is_write:
                    src = self._cs_reads.get(key)
                    if src is not None:
                        sources = _k.source_join_into(src.entries, values, ti)
                        if sources is not None:
                            self._snap_ok[ti] = False
                            for s in sources:
                                self._add_edge(s, eid)
                cur = pend.get(li)
                if cur is None:
                    cur = pend[li] = (set(), set())
                cur[is_write].add(vi)
        # Inlined race-check entry: the exclusive (single-accessor) fast
        # path, the overwhelmingly common case.
        st = self._vars[vi]
        if st is None:
            st = self._vars[vi] = _VarState(ti)
        if st.owner == ti:
            self._n_excl_fast += 1
            if self.force_order and self.transitive_force:
                if self._snap_ok[ti]:
                    self._n_snap_reuses += 1
                    snap = self._snaps[ti]
                else:
                    snap = values.copy()
                    self._snaps[ti] = snap
                    self._snap_ok[ti] = True
                    self._n_snap_copies += 1
            else:
                snap = None
            if is_write:
                st.xw_time = t
                st.xw_eid = eid
                st.xw_snap = snap
            else:
                st.xr_time = t
                st.xr_eid = eid
                st.xr_snap = snap
            return
        self._check_shared(eid, ti, t, values, is_write, st)

    # ------------------------------------------------------------------
    # Lock operations
    # ------------------------------------------------------------------
    def _acquire(self, eid: int) -> None:
        ti = self._tix[eid]
        t = self._lt[eid]
        self._advance(eid, ti, t)
        li = self._tgt[eid]
        queues = self._queues[li]
        if queues is None:
            queues = self._queues[li] = DenseLockQueues()
        queues.on_acquire(ti, t)
        # No synchronisation-order join (DC departs from HB/WCP here);
        # track single-ownership for the rule (b) skip.
        owner = queues.owner
        if owner != ti:
            if owner == -1:
                queues.owner = ti
            else:
                if owner >= 0:
                    self._n_lock_transfers += 1
                queues.owner = -2

    def _release(self, eid: int) -> None:
        ti = self._tix[eid]
        t = self._lt[eid]
        values = self._advance(eid, ti, t)
        li = self._tgt[eid]
        queues = self._queues[li]
        if queues is None or queues.open_ti != ti:
            # Streaming traces bypass Trace's construction-time
            # validation, so a release without a matching acquire must
            # surface as a malformed-trace error, not a KeyError.
            raise self._no_matching_acquire(eid)
        if queues.owner == ti:
            # Ownership fast path: every record is the releasing
            # thread's own; its clock dominates its own past, so the
            # reference walk would consume them all silently and join
            # nothing. The cursors catch up lazily if the lock is ever
            # shared.
            self._n_rule_b_skips += 1
        else:
            sources = queues.apply_rule_b(ti, values)
            if sources is not None:
                self._snap_ok[ti] = False
                for s in sources:
                    self._add_edge(s, eid)
        snapshot = values.copy()
        pending = self._pending_vars[ti].pop(li, None)
        if pending is not None:
            read_vars, written_vars = pending
            nv = self._nv
            for vi in written_vars:
                table = self._cs_writes.get(li * nv + vi)
                if table is None:
                    table = self._cs_writes[li * nv + vi] = DenseSourceClocks()
                table.record(ti, eid, t, snapshot)
            for vi in read_vars:
                table = self._cs_reads.get(li * nv + vi)
                if table is None:
                    table = self._cs_reads[li * nv + vi] = DenseSourceClocks()
                table.record(ti, eid, t, snapshot)
        queues.on_release(eid, t, snapshot)

    # ------------------------------------------------------------------
    # Fork / join / volatiles: direct DC ordering
    # ------------------------------------------------------------------
    def _fork(self, eid: int) -> None:
        ti = self._tix[eid]
        values = self._advance(eid, ti, self._lt[eid])
        self._pending_fork[self._tgt[eid]] = (eid, values.copy())

    def _join(self, eid: int) -> None:
        ti = self._tix[eid]
        values = self._advance(eid, ti, self._lt[eid])
        ci = self._tgt[eid]
        pending = self._pending_fork.pop(ci, None)
        if pending is not None:
            # The child never executed an event: the fork ordering still
            # flows through the (empty) child into the join.
            fork_eid, parent = pending
            if _k.join_into_list_changed(values, parent):
                self._snap_ok[ti] = False
            self._n_joins += 1
            self._add_edge(fork_eid, eid)
        child_values = self._values[ci]
        if child_values is not None:
            if _k.join_into_list_changed(values, child_values):
                self._snap_ok[ti] = False
            self._n_joins += 1
            child_last = self._last_event[ci]
            if child_last >= 0:
                self._add_edge(child_last, eid)

    def _volatile_write(self, eid: int) -> None:
        ti = self._tix[eid]
        t = self._lt[eid]
        values = self._advance(eid, ti, t)
        xi = self._tgt[eid]
        writes = self._vol_writes[xi]
        if writes is None:
            writes = self._vol_writes[xi] = DenseSourceClocks()
        reads = self._vol_reads[xi]
        if reads is None:
            reads = self._vol_reads[xi] = DenseSourceClocks()
        for table in (writes, reads):
            sources = table.join_into(values, ti)
            if sources is not None:
                self._snap_ok[ti] = False
                for s in sources:
                    self._add_edge(s, eid)
        writes.record(ti, eid, t, values.copy())

    def _volatile_read(self, eid: int) -> None:
        ti = self._tix[eid]
        t = self._lt[eid]
        values = self._advance(eid, ti, t)
        xi = self._tgt[eid]
        writes = self._vol_writes[xi]
        if writes is not None and writes.entries:
            sources = writes.join_into(values, ti)
            if sources is not None:
                self._snap_ok[ti] = False
                for s in sources:
                    self._add_edge(s, eid)
        reads = self._vol_reads[xi]
        if reads is None:
            reads = self._vol_reads[xi] = DenseSourceClocks()
        reads.record(ti, eid, t, values.copy())
