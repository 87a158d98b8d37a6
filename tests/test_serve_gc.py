"""Windowed metadata GC: verdict-neutral and memory-bounding.

Two pinned properties:

* **Differential** — a streaming session with GC on produces a final
  report **bit-identical** to the same session with GC off (and to
  single-shot ``Vindicator.run``): verdicts, racing sets, DC edge
  lists, and counters all survive untouched, on workload traces and on
  hypothesis-generated fork-closed traces, across GC window sizes.
* **Bounded memory** — on a phased synthetic stream (threads are
  forked, do their work, and are joined, phase after phase) at least
  10x the GC window long, the detectors' live metadata stays flat: the
  peak live-entry count and the allocator's peak are a function of the
  *phase width*, not of how long the stream has been running.
"""

import json
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.events import Event, EventKind
from repro.core.exceptions import MalformedTraceError
from repro.runtime import execute
from repro.runtime.workloads import WORKLOADS
from repro.serve.session import SessionAnalyzer, SessionConfig
from repro.traces.gen import GeneratorConfig, random_trace
from repro.vindicate.vindicator import Vindicator

#: (workload, seed, retires): ``retires`` asserts the GC actually finds
#: work — true where threads synchronize enough for cover clocks to
#: dominate old entries (avrora/sunflow); pmd's threads barely
#: synchronize, so it pins the other edge: GC runs that retire nothing
#: must still be exact no-ops.
WORKLOAD_CASES = [("avrora", 3, True), ("pmd", 1, False),
                  ("sunflow", 2, True)]


def normalize(doc):
    """Strip wall-clock and environment fields; everything else must be
    bit-identical between GC-on, GC-off, and single-shot analyze."""
    doc = json.loads(json.dumps(doc))
    doc["timing"] = None
    doc["metrics"] = None
    doc["parallel"] = None
    doc["trace"]["provenance"] = None
    for vindication in doc.get("vindications", []):
        vindication["elapsed_seconds"] = None
    for analysis in doc.get("analyses", {}).values():
        analysis["counters"] = {
            key: value for key, value in analysis.get("counters", {}).items()
            if not key.startswith("reach_")
        }
    return doc


def run_session(trace, gc_window):
    config = SessionConfig(
        name="gc-test", gc_window=gc_window,
        require_fork_closed=None if gc_window else False)
    analyzer = SessionAnalyzer(config)
    analyzer.feed_events(trace)
    return analyzer


def session_fingerprint(analyzer):
    """Everything observable about a finished session that GC must not
    change: the document, the racing sets, and the DC edge list."""
    doc = normalize(analyzer.finish())
    racing = {
        rel: {eid: sorted(peers) for eid, peers in det.racing_at.items()}
        for rel, det in (("hb", analyzer.hb), ("wcp", analyzer.wcp),
                         ("dc", analyzer.dc))
    }
    edges = sorted(analyzer.dc.graph.edges())
    return doc, racing, edges


class TestGCDifferential:
    @pytest.mark.parametrize("name,seed,retires", WORKLOAD_CASES)
    @pytest.mark.parametrize("gc_window", [32, 256])
    def test_workload_bit_identical(self, name, seed, retires, gc_window):
        trace = execute(WORKLOADS[name](scale=0.25), seed=seed)
        with_gc = run_session(trace, gc_window)
        without = run_session(trace, 0)
        assert with_gc.gc_runs > 0
        if retires and gc_window == 32:
            assert with_gc.gc_retired > 0  # the GC actually did something
        assert session_fingerprint(with_gc) == session_fingerprint(without)
        # ... and both match the single-shot batch pipeline.
        reference = normalize(Vindicator().run(trace).to_document())
        assert session_fingerprint(with_gc)[0] == reference

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000), threads=st.integers(2, 4),
           events=st.integers(20, 120), gc_window=st.integers(5, 40))
    def test_random_fork_closed_bit_identical(self, seed, threads, events,
                                              gc_window):
        trace = random_trace(seed, GeneratorConfig(
            threads=threads, events=events, use_fork_join=True))
        with_gc = run_session(trace, gc_window)
        without = run_session(trace, 0)
        assert session_fingerprint(with_gc) == session_fingerprint(without)

    @pytest.mark.parametrize("gc_window", [1, 2, 3])
    def test_thread_lifecycle_edges_bit_identical(self, gc_window):
        """Covers at the edges of a thread's life: a child forked
        several GC passes before its first event (its cover is the
        pending fork snapshot, which must keep the ended sibling's
        unsynchronized write alive for the race it later makes), a
        thread forked and joined without ever running, and a thread
        that ends while the others continue."""
        events = lifecycle_stream()
        with_gc = run_session(events, gc_window)
        without = run_session(events, 0)
        assert with_gc.gc_runs >= len(events) // 3
        assert with_gc.gc_retired > 0
        assert session_fingerprint(with_gc) == session_fingerprint(without)
        # The late child's q write races with the ended sibling's.
        late_q = next(e.eid for e in events if e.tid == 1 and e.target == "q")
        assert late_q in without.hb.racing_at

    def test_gc_session_rejects_unforked_threads(self):
        """GC is sound only on fork-closed streams, so GC-enabled
        sessions must refuse a thread that appears from nowhere."""
        analyzer = SessionAnalyzer(SessionConfig(name="strict", gc_window=8))
        analyzer.feed_events([
            Event(0, 1, EventKind.BEGIN, None),
            Event(1, 1, EventKind.WRITE, "x"),
        ])
        with pytest.raises(MalformedTraceError) as excinfo:
            analyzer.feed_events([Event(2, 2, EventKind.WRITE, "x")])
        assert excinfo.value.event_index == 2
        # The same stream is fine with GC off.
        relaxed = SessionAnalyzer(SessionConfig(
            name="relaxed", gc_window=0, require_fork_closed=False))
        relaxed.feed_events([
            Event(0, 1, EventKind.BEGIN, None),
            Event(1, 1, EventKind.WRITE, "x"),
            Event(2, 2, EventKind.WRITE, "x"),
        ])
        assert len(relaxed.trace) == 3


def lifecycle_stream():
    """Root 0 forks 1 (runs late), 2 (never runs) and 3 (ends early);
    0 and 3 synchronize on ``m`` while 1 is pending, 0 joins 2 and 3
    ends, then 1 runs: it races with 3's unsynchronized ``q`` write
    (and, under DC only, with 0's ``w`` write) and synchronizes on
    ``m`` and ``v``."""
    rows = [(0, "begin"), (0, "acq", "m"), (0, "wr", "x"), (0, "rd", "y"),
            (0, "rel", "m"), (0, "fork", 1), (0, "fork", 2), (0, "fork", 3),
            (3, "begin"), (3, "wr", "q")]
    for _ in range(4):
        rows += [(3, "acq", "m"), (3, "wr", "x"), (3, "rel", "m"),
                 (0, "acq", "m"), (0, "rd", "x"), (0, "wr", "z"),
                 (0, "rel", "m"), (0, "vwr", "v")]
    rows += [(0, "join", 2), (0, "wr", "w"), (3, "vrd", "v"), (3, "end")]
    for _ in range(3):
        rows += [(0, "acq", "m"), (0, "wr", "y"), (0, "rel", "m")]
    rows += [(1, "begin"), (1, "wr", "q"), (1, "acq", "m"), (1, "wr", "x"),
             (1, "rd", "z"), (1, "rel", "m"), (1, "vrd", "v"),
             (1, "rd", "w"), (0, "acq", "m"), (0, "wr", "y"),
             (0, "rel", "m"), (1, "end"), (0, "join", 1), (0, "end")]
    kinds = {kind.value: kind for kind in EventKind}
    return [Event(eid, row[0], kinds[row[1]], *row[2:])
            for eid, row in enumerate(rows)]


# ----------------------------------------------------------------------
# Bounded memory
# ----------------------------------------------------------------------
def phased_stream(phases, workers=3, accesses=6):
    """A fork-closed stream whose live set is one phase wide: the root
    forks ``workers`` threads, each hammers phase-private variables,
    and all are joined before the next phase starts. Total metadata is
    O(phases) without GC and O(1) with it."""
    events = []
    eid = 0

    def emit(tid, kind, target=None):
        nonlocal eid
        events.append(Event(eid, tid, kind, target))
        eid += 1

    emit(0, EventKind.BEGIN)
    for phase in range(phases):
        tids = [1 + phase * workers + w for w in range(workers)]
        for tid in tids:
            emit(0, EventKind.FORK, tid)
        for tid in tids:
            emit(tid, EventKind.BEGIN)
            for access in range(accesses):
                var = f"x{phase}_{access}"
                emit(tid, EventKind.ACQUIRE, f"m{phase}")
                emit(tid, EventKind.WRITE, var)
                emit(tid, EventKind.READ, var)
                emit(tid, EventKind.RELEASE, f"m{phase}")
            emit(tid, EventKind.END)
        for tid in tids:
            emit(0, EventKind.JOIN, tid)
    emit(0, EventKind.END)
    return events


def drive(events, gc_window, probe_every=500):
    """Feed the stream through a graph-less session, sampling the live
    metadata entry count; returns (analyzer, peak live entries)."""
    analyzer = SessionAnalyzer(SessionConfig(
        name="mem", gc_window=gc_window, build_graph=False,
        require_fork_closed=bool(gc_window)))
    peak = 0
    for i, event in enumerate(events):
        analyzer.feed_events((event,))
        if i % probe_every == 0:
            live = sum(d.gc_live_entries() for d in analyzer._detectors)
            peak = max(peak, live)
    peak = max(peak, sum(d.gc_live_entries() for d in analyzer._detectors))
    return analyzer, peak


class TestBoundedMemory:
    GC_WINDOW = 200

    def test_live_entries_stay_flat(self):
        """Live metadata under GC is phase-local: 4x more phases must
        not grow the peak live-entry count, while the GC-off peak keeps
        growing with stream length."""
        short = phased_stream(phases=8)
        long = phased_stream(phases=32)
        assert len(long) >= 10 * self.GC_WINDOW  # the issue's floor

        _, peak_short = drive(short, self.GC_WINDOW)
        long_gc, peak_long = drive(long, self.GC_WINDOW)
        _, peak_off = drive(long, 0)

        assert long_gc.gc_retired > 0
        assert peak_long <= peak_short * 1.5  # flat, not growing
        assert peak_off >= peak_long * 4      # GC-off really does grow

    def test_allocator_peak_is_bounded(self):
        """The flatness shows up at the allocator too, not just in our
        own entry counts."""
        stream = phased_stream(phases=32)

        def peak_bytes(gc_window):
            tracemalloc.start()
            try:
                analyzer, _ = drive(stream, gc_window)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return analyzer, peak

        gc_on, on_peak = peak_bytes(self.GC_WINDOW)
        _, off_peak = peak_bytes(0)
        assert gc_on.gc_retired > 0
        # Identical stream, identical detectors; the only difference is
        # retired metadata. GC must at least halve the peak.
        assert on_peak * 2 <= off_peak, (on_peak, off_peak)

    def test_status_reports_gc_counters(self):
        events = phased_stream(phases=8)
        analyzer, _ = drive(events, self.GC_WINDOW)
        status = analyzer.status()
        assert status["gc_runs"] == len(events) // self.GC_WINDOW
        assert status["gc_retired"] == analyzer.gc_retired > 0
        assert status["events"] == len(events)
