"""FastTrack-style epoch-optimised happens-before detection.

RoadRunner — the paper's implementation platform — is also the home of
FastTrack [Flanagan & Freund 2009], whose insight is that a variable's
access history rarely needs a full vector clock: when the last writes
(or reads) are totally ordered, a single *epoch* ``c@t`` suffices.

This detector is an extension over the paper's HB analysis: it reports
the same races as :class:`~repro.analysis.hb.HBDetector` (the same racy
access events) while doing O(1) work on the common same-epoch and
ordered-access fast paths. It reuses the HB detector's synchronisation
machinery (locks, fork/join, volatiles) and replaces only the per-access
metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.events import Event, Target, Tid
from repro.core.trace import Trace
from repro.core.vectorclock import Epoch
from repro.analysis.hb import HBDetector
from repro.analysis.races import DynamicRace, RaceReport


@dataclass
class _VarState:
    """FastTrack metadata for one variable."""

    write_epoch: Optional[Epoch] = None
    write_event: Optional[Event] = None
    #: Either a single read epoch (with its event) or, after concurrent
    #: reads, a per-thread map of (time, event) — the "read share" state.
    read_epoch: Optional[Epoch] = None
    read_event: Optional[Event] = None
    read_map: Dict[Tid, Tuple[int, Event]] = field(default_factory=dict)

    @property
    def shared(self) -> bool:
        return bool(self.read_map)


class FastTrackDetector(HBDetector):
    """Epoch-based HB race detector (FastTrack)."""

    relation = "HB/FastTrack"

    def __init__(self) -> None:
        super().__init__()
        self._vars: Dict[Target, _VarState] = {}
        #: Same-epoch write fast-path hits — FastTrack's headline O(1)
        #: case. A plain int on the per-event hot path; folded into the
        #: report counters (and the metrics registry) at :meth:`finish`.
        self._n_epoch_fast = 0

    def begin_trace(self, trace: Trace) -> None:
        super().begin_trace(trace)
        self._vars = {}
        self._n_epoch_fast = 0

    def finish(self) -> RaceReport:
        assert self.report is not None, "begin_trace was never called"
        if self._n_epoch_fast:
            counters = self.report.counters
            counters["ft_epoch_fast_hits"] = (
                counters.get("ft_epoch_fast_hits", 0) + self._n_epoch_fast)
            self._n_epoch_fast = 0
        return super().finish()

    # ------------------------------------------------------------------
    # Access handling (replaces the vector-clock history of the base)
    # ------------------------------------------------------------------
    def _report(self, prior: Optional[Event], e: Event) -> None:
        if prior is None:
            return
        assert self.report is not None
        self.report.races.append(
            DynamicRace(first=prior, second=e, relation="HB"))
        self.racing_at.setdefault(e.eid, frozenset())
        self.racing_at[e.eid] = self.racing_at[e.eid] | {prior.eid}

    def on_read(self, e: Event) -> None:
        clock = self._advance(e)
        state = self._vars.setdefault(e.target, _VarState())
        assert self.trace is not None
        my_time = self.trace.local_time[e.eid]
        if state.write_epoch is not None and not state.write_epoch.happens_before(clock):
            self._report(state.write_event, e)
            self.bump("ft_write_read_races")
            # Force order past the race, as the paper's analyses do.
            clock.set(state.write_epoch.tid,
                      max(clock.get(state.write_epoch.tid), state.write_epoch.time))
        if state.shared:
            state.read_map[e.tid] = (my_time, e)
        elif state.read_epoch is None or state.read_epoch.happens_before(clock):
            state.read_epoch = Epoch(my_time, e.tid)
            state.read_event = e
        else:
            # Concurrent reads: inflate the epoch into the shared map.
            assert state.read_event is not None
            state.read_map = {
                state.read_epoch.tid: (state.read_epoch.time, state.read_event),
                e.tid: (my_time, e),
            }
            state.read_epoch = None
            state.read_event = None
            self.bump("ft_read_inflations")

    def on_write(self, e: Event) -> None:
        clock = self._advance(e)
        state = self._vars.setdefault(e.target, _VarState())
        assert self.trace is not None
        my_time = self.trace.local_time[e.eid]
        if (state.write_epoch is not None
                and state.write_epoch.tid == e.tid
                and state.write_epoch.time == clock.get(e.tid)):
            self._n_epoch_fast += 1
            return  # same-epoch fast path
        racing_priors = []
        if state.write_epoch is not None and not state.write_epoch.happens_before(clock):
            racing_priors.append((state.write_epoch, state.write_event))
        if state.shared:
            for tid, (time, event) in state.read_map.items():
                if tid != e.tid and time > clock.get(tid):
                    racing_priors.append((Epoch(time, tid), event))
            state.read_map = {}
        elif state.read_epoch is not None:
            if (state.read_epoch.tid != e.tid
                    and not state.read_epoch.happens_before(clock)):
                racing_priors.append((state.read_epoch, state.read_event))
        if racing_priors:
            # Report the shortest race, mirroring the base detector.
            racing_priors.sort(key=lambda pair: pair[1].eid if pair[1] else -1)
            self._report(racing_priors[-1][1], e)
            self.bump("ft_write_races")
            for epoch, _ in racing_priors:
                clock.set(epoch.tid, max(clock.get(epoch.tid), epoch.time))
        state.write_epoch = Epoch(my_time, e.tid)
        state.write_event = e
