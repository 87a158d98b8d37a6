"""Detector framework shared by the HB, WCP, and DC analyses.

Every online analysis processes a trace event-by-event, maintaining a
per-thread vector clock whose meaning is "the events ordered before this
thread's next event" under the analysis's relation (∪ PO for relations
that do not already include program order). The race check and the
access-history bookkeeping are identical across analyses, so they live
here; subclasses supply the clock updates that define the relation.

Following the paper's implementation notes (Section 6.1):

* at an access, the detector records at most one dynamic race — the
  "shortest" one, i.e. against the racing prior access with maximal
  timestamp;
* after reporting a race between ``e1`` and ``e2``, the detector forces
  ``e1 ≺ e2`` so later races are not dependent on earlier ones.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro import obs
from repro.core import kernels as _k
from repro.core.events import Event, EventKind, Target, Tid
from repro.core.trace import Trace
from repro.core.vectorclock import VectorClock
from repro.analysis.races import DynamicRace, RaceReport
from repro.obs.metrics import DEFAULT_SIZE_BUCKETS


@dataclass
class AccessHistory:
    """Last read and last write of one variable, per thread.

    Each entry carries the analysis clock snapshot taken at the access,
    so that forcing the order of a detected race can join the earlier
    access's *full* clock — making forced ordering transitive, which is
    what actually prevents later races from being dependent on earlier
    ones (Section 6.1, "Handling DC-races").
    """

    last_write: Dict[Tid, Tuple[Event, Optional[VectorClock]]] = field(default_factory=dict)
    last_read: Dict[Tid, Tuple[Event, Optional[VectorClock]]] = field(default_factory=dict)
    #: Every thread that has accessed the variable so far. While this
    #: stays within a single thread no racing prior can exist, so
    #: :meth:`Detector.check_access` skips the scan outright.
    tids: Set[Tid] = field(default_factory=set)


class Detector(abc.ABC):
    """Base class for online race detectors.

    Subclasses set :attr:`relation` and implement the event hooks that
    define the relation's clock updates. The base class provides event
    dispatch, the access history, the race check, and race recording.
    """

    #: Relation name, e.g. ``"HB"``; set by subclasses.
    relation: str = "?"

    def __init__(self) -> None:
        self.trace: Optional[Trace] = None
        self.report: Optional[RaceReport] = None
        self._history: Dict[Target, AccessHistory] = {}
        #: Per-thread memo of the last clock snapshot taken by
        #: :meth:`check_access`: ``tid -> (clock object, snapshot,
        #: version at copy time)``. While the clock object is unchanged
        #: and its :attr:`~repro.core.vectorclock.VectorClock.version`
        #: still matches, the previous snapshot is reused instead of
        #: copied again (self-advances do not bump the version; see
        #: ``VectorClock.advance`` for why that is exact).
        self._snap_cache: Dict[Tid, Tuple[VectorClock, VectorClock, int]] = {}
        #: Vector-clock joins performed (batched into the metrics
        #: registry at :meth:`finish`; a plain int so the per-join cost
        #: is one increment whether or not observability is on).
        self._n_joins = 0
        #: After reporting a race, force the pair's ordering (Section 6.1).
        #: The differential tests disable this to compare the detector's
        #: clocks against the pure relation computed by the reference
        #: engines.
        self.force_order = True
        #: Transitive forcing (default): join the earlier access's clock
        #: snapshot, so later races can never be dependent on earlier
        #: ones — with this on, dependent false DC-races are *suppressed*
        #: (the paper's experience: every reported DC-race was true).
        #: With it off, forcing bumps only the racing component (as an
        #: epoch-based implementation would); dependent DC-races then
        #: surface and VindicateRace refutes them with constraint cycles.
        self.transitive_force = True
        #: For each access event that raced: the eids of *all* racing prior
        #: accesses (not just the recorded shortest one). The combined
        #: Vindicator pipeline uses this to decide whether a DC-race pair
        #: is also unordered under HB / WCP.
        self.racing_at: Dict[int, frozenset] = {}

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def analyze(self, trace: Trace) -> RaceReport:
        """Run the detector over ``trace`` and return its race report."""
        with obs.span(f"analysis.{self.metric_label()}") as sp:
            self.begin_trace(trace)
            handle = self.handle
            for eid in range(len(trace)):
                handle(eid)
            report = self.finish()
            sp.annotate("events", len(trace))
            sp.annotate("races", len(report.races))
        return report

    def metric_label(self) -> str:
        """This detector's metric-name segment (``"DC"`` → ``"dc"``)."""
        return self.relation.lower().replace("/", "_")

    def begin_trace(self, trace: Trace) -> None:
        """Reset state and bind the detector to ``trace`` (streaming API:
        call this, then :meth:`handle` per event id, then
        :meth:`finish`)."""
        self.trace = trace
        self.report = RaceReport(relation=self.relation)
        self._history = {}
        self.racing_at = {}
        self._snap_cache = {}
        self._n_joins = 0

    def finish(self) -> RaceReport:
        """Return the report for the trace processed so far."""
        assert self.report is not None, "begin_trace was never called"
        reg = obs.metrics()
        if reg.enabled:
            self._publish(reg)
        return self.report

    def _publish(self, reg: obs.AnyRegistry) -> None:
        """Batch this trace's statistics into the live metrics registry.

        Called from :meth:`finish` only when observability is enabled,
        so the per-event dispatch and race-check loops carry no
        instrumentation at all: events processed come from the trace
        length, races and distances from the report, joins from the
        :attr:`_n_joins` batch counter, and the report counters are
        mirrored so there is one way to count things.
        """
        assert self.report is not None
        label = self.metric_label()
        if self.trace is not None:
            reg.add(f"analysis.{label}.events", len(self.trace))
        reg.add(f"analysis.{label}.races", len(self.report.races))
        reg.add(f"analysis.{label}.vc_joins", self._n_joins)
        for name, value in self.report.counters.items():
            reg.add(f"analysis.{label}.{name}", value)
        if self.report.races:
            hist = reg.histogram(f"analysis.{label}.race_distance",
                                 DEFAULT_SIZE_BUCKETS)
            for race in self.report.races:
                hist.observe(race.event_distance)

    def handle(self, eid: int) -> None:
        """Dispatch event ``eid`` of the bound trace to its kind-specific
        hook, as an :class:`Event` read through ``trace.events``."""
        assert self.trace is not None, "begin_trace was never called"
        event = self.trace.events[eid]
        kind = event.kind
        if kind is EventKind.READ:
            self.on_read(event)
        elif kind is EventKind.WRITE:
            self.on_write(event)
        elif kind is EventKind.ACQUIRE:
            self.on_acquire(event)
        elif kind is EventKind.RELEASE:
            self.on_release(event)
        elif kind is EventKind.FORK:
            self.on_fork(event)
        elif kind is EventKind.JOIN:
            self.on_join(event)
        elif kind is EventKind.VOLATILE_WRITE:
            self.on_volatile_write(event)
        elif kind is EventKind.VOLATILE_READ:
            self.on_volatile_read(event)
        elif kind is EventKind.BEGIN:
            self.on_begin(event)
        elif kind is EventKind.END:
            self.on_end(event)

    # ------------------------------------------------------------------
    # Hooks (subclasses override the ones their relation cares about)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def on_read(self, e: Event) -> None: ...

    @abc.abstractmethod
    def on_write(self, e: Event) -> None: ...

    @abc.abstractmethod
    def on_acquire(self, e: Event) -> None: ...

    @abc.abstractmethod
    def on_release(self, e: Event) -> None: ...

    def on_fork(self, e: Event) -> None:  # pragma: no cover - overridden
        pass

    def on_join(self, e: Event) -> None:  # pragma: no cover - overridden
        pass

    def on_volatile_write(self, e: Event) -> None:
        pass

    def on_volatile_read(self, e: Event) -> None:
        pass

    def on_begin(self, e: Event) -> None:
        pass

    def on_end(self, e: Event) -> None:
        pass

    # ------------------------------------------------------------------
    # Ordering queries (used by the combined pipeline for classification)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def ordered_to_current(self, prior: Event, tid: Tid) -> bool:
        """Is ``prior`` ordered (under this relation ∪ PO) before the next
        event of thread ``tid``, given the trace prefix processed so far?"""

    def on_forced_order(self, prior: Event, e: Event,
                        snapshot: Optional[VectorClock]) -> None:
        """Called when a detected race forces ``prior ≺ e`` (Section 6.1),
        after the prior's component (and, under transitive forcing, its
        stored clock ``snapshot``) was joined into the analysis clock.
        Graph-building detectors override this to mirror the forced
        ordering as a constraint-graph edge; WCP overrides it to treat
        the forced edge as *hard* (joined into H as well as P) so the
        ordering propagates through its H-only snapshots."""

    # ------------------------------------------------------------------
    # Shared race check
    # ------------------------------------------------------------------
    def check_access(self, e: Event, clock: VectorClock) -> Optional[DynamicRace]:
        """Race-check access ``e`` against the variable's history, update
        the history, and record at most one (shortest) dynamic race.

        ``clock`` is the executing thread's analysis clock; a prior access
        by thread ``u`` with thread-local time above ``clock[u]`` is
        unordered and therefore racing. After reporting, all racing priors
        are force-ordered into ``clock`` so subsequent races are
        independent (Section 6.1, "Handling DC-races").
        """
        assert self.trace is not None
        tid = e.tid
        history = self._history.get(e.target)
        if history is None:
            history = self._history[e.target] = AccessHistory()

        race: Optional[DynamicRace] = None
        tids = history.tids
        if tids and (len(tids) > 1 or tid not in tids):
            # Some other thread has accessed this variable, so a racing
            # prior is possible — scan the history (one fused kernel
            # call over the write table, plus the read table for
            # writes). (Single-threaded-so-far variables skip straight
            # to the bookkeeping below.)
            local_time = self.trace.local_time
            clock_get = clock.get
            racing: Optional[List[Tuple[Event, Optional[VectorClock]]]] = (
                _k.scan_racing_sparse(
                    history.last_write,
                    history.last_read if e.is_write else None,
                    tid, local_time, clock_get))

            if racing:
                self.racing_at[e.eid] = frozenset(p.eid for p, _ in racing)
                shortest = max((p for p, _ in racing), key=lambda p: p.eid)
                race = DynamicRace(first=shortest, second=e, relation=self.relation)
                assert self.report is not None
                self.report.races.append(race)
                if self.force_order:
                    for prior, snapshot in racing:
                        if clock_get(prior.tid) < local_time[prior.eid]:
                            clock.set(prior.tid, local_time[prior.eid])
                            if self.transitive_force and snapshot is not None:
                                # The prior access itself plus everything
                                # ordered before it.
                                clock.join(snapshot)
                                self._n_joins += 1
                            self.on_forced_order(prior, e, snapshot)

        snapshot2: Optional[VectorClock]
        if self.force_order and self.transitive_force:
            cached = self._snap_cache.get(tid)
            if cached is not None and cached[0] is clock and cached[2] == clock.version:
                snapshot2 = cached[1]
            else:
                snapshot2 = clock.copy()
                self._snap_cache[tid] = (clock, snapshot2, clock.version)
        else:
            # Snapshots are consumed only by transitive force-ordering;
            # when that can never happen, skip the copy entirely.
            snapshot2 = None
        tids.add(tid)
        # Re-insert at the end so table order is most-recent-last, a pure
        # function of the access sequence: the force-ordering loop above
        # consumes `racing` in table order and joins clocks as it goes, so
        # an order that depended on *first* access (dict in-place update)
        # would diverge from the epoch detectors' once their streaming GC
        # removed and re-admitted a thread.
        table = history.last_write if e.is_write else history.last_read
        _k.record_latest(table, tid, (e, snapshot2))
        return race

    def bump(self, counter: str, amount: int = 1) -> None:
        """Increment an analysis statistics counter on the current report."""
        assert self.report is not None
        counters = self.report.counters
        counters[counter] = counters.get(counter, 0) + amount
