"""Serve's growing trace and the epoch detectors bound to it.

* **Columns** — after every prefix of a stream, the columns and tables
  :class:`~repro.serve.streaming.StreamingTrace` grows decode to the
  same per-event thread, target, held-lock and local-time values as a
  ``Trace`` built from that prefix.
* **Growth** — a stream that forks more threads than the initial clock
  capacity, mid-stream and after other threads have run, grows the
  detectors' clocks and tables and still ends in the single-shot
  document.
* **Rejection** — an event the stream rejects, for any of its checks,
  leaves the trace's columns, tables, events and liveness sets as they
  were, and the session goes on to the single-shot document.
* **Frames** — the frame parser (:func:`repro.traces.io.parse_lines`)
  yields exactly :func:`~repro.traces.io.parse_event_line`'s events (as
  rows) and errors, with intern tables kept across frames, and its line
  map gives each event's line.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.smarttrack import (EpochDCDetector, EpochHBDetector,
                                       EpochWCPDetector)
from repro.core.events import KIND_BY_CODE, Event, EventKind
from repro.core.exceptions import MalformedTraceError, TraceFormatError
from repro.core.trace import Trace
from repro.runtime import execute
from repro.runtime.workloads import WORKLOADS
from repro.serve.session import SessionAnalyzer, SessionConfig
from repro.serve.streaming import StreamingTrace
from repro.traces.gen import GeneratorConfig, random_trace
from repro.traces.io import (LineMap, format_event, loads_trace,
                             parse_event_line, parse_lines)
from repro.traces.litmus import ALL as LITMUS
from repro.vindicate.vindicator import Vindicator

from test_serve_gc import normalize

_TARGET_TABLE = {0: "var_names", 1: "var_names", 2: "lock_names",
                 3: "lock_names", 4: "tid_names", 5: "tid_names",
                 6: "vol_names", 7: "vol_names"}


def decoded(trace, n):
    """Per event of the first ``n``: its code, thread, local time,
    target (through the table of its role) and held locks, all by name;
    plus each executing thread's eids."""
    rows = []
    for eid in range(n):
        code = trace.codes[eid]
        table = _TARGET_TABLE.get(code)
        held = trace.held[eid]
        rows.append((
            code,
            trace.tid_names[trace.tix[eid]],
            trace.local_time[eid],
            None if table is None else getattr(trace, table)[trace.tgt[eid]],
            None if held is None else tuple(trace.lock_names[li]
                                            for li in held),
        ))
    threads = {trace.tid_names[ti]: eids
               for ti, eids in enumerate(trace.thread_eids) if eids}
    return rows, threads


def assert_prefixes_decode_alike(events, every=1):
    stream = StreamingTrace()
    for i, event in enumerate(events):
        stream.append(event)
        n = i + 1
        if n % every and n != len(events):
            continue
        batch = Trace(events[:n])
        assert decoded(stream, n) == decoded(batch, n), n
        assert set(stream.var_names) == set(batch.var_names)
        assert set(stream.lock_names) == set(batch.lock_names)
        assert set(stream.vol_names) == set(batch.vol_names)
        assert set(stream.tid_names) == set(batch.tid_names)
        assert stream.threads == batch.threads


class TestColumns:
    @pytest.mark.parametrize("name", sorted(LITMUS))
    def test_litmus_prefixes(self, name):
        assert_prefixes_decode_alike(LITMUS[name]().events)

    @pytest.mark.parametrize("name,seed", [("avrora", 0), ("xalan", 1),
                                           ("h2", 2), ("sunflow", 3)])
    def test_workload_prefixes(self, name, seed):
        trace = execute(WORKLOADS[name](scale=0.2), seed=seed)
        assert_prefixes_decode_alike(trace.events, every=7)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000), threads=st.integers(2, 5),
           events=st.integers(5, 80), volatiles=st.integers(0, 2))
    def test_fork_closed_prefixes(self, seed, threads, events, volatiles):
        trace = random_trace(seed, GeneratorConfig(
            threads=threads, events=events, volatiles=volatiles,
            use_fork_join=True))
        assert_prefixes_decode_alike(trace.events)


# ----------------------------------------------------------------------
# Growth past the initial capacity
# ----------------------------------------------------------------------
def wide_fork_stream(children=20):
    """Two threads run and share variables under locks; then thread 1
    forks ``children`` threads at once, before any of them runs, and
    the children start in reverse fork order, race on shared variables
    and are joined. A batch Trace and the stream both index each child
    at its fork: in fork order, not in the order the children start."""
    events = []

    def emit(tid, kind, target=None):
        events.append(Event(len(events), tid, kind, target))

    emit(0, EventKind.BEGIN)
    emit(0, EventKind.FORK, 1)
    emit(1, EventKind.BEGIN)
    for i in range(3):
        emit(0, EventKind.ACQUIRE, "m")
        emit(0, EventKind.WRITE, f"s{i}")
        emit(0, EventKind.RELEASE, "m")
        emit(1, EventKind.ACQUIRE, "m")
        emit(1, EventKind.READ, f"s{i}")
        emit(1, EventKind.RELEASE, "m")
    kids = [100 + k for k in range(children)]
    for kid in kids:
        emit(1, EventKind.FORK, kid)
    for k, kid in enumerate(reversed(kids)):
        emit(kid, EventKind.BEGIN)
        emit(kid, EventKind.WRITE, f"x{k % 4}")
        emit(kid, EventKind.VOLATILE_WRITE, "flag")
        emit(kid, EventKind.ACQUIRE, f"k{k % 3}")
        emit(kid, EventKind.READ, f"y{k % 5}")
        emit(kid, EventKind.WRITE, "s0")
        emit(kid, EventKind.RELEASE, f"k{k % 3}")
        emit(0, EventKind.VOLATILE_READ, "flag")
        emit(0, EventKind.WRITE, f"y{k % 5}")
    for kid in kids:
        emit(kid, EventKind.END)
        emit(1, EventKind.JOIN, kid)
    emit(1, EventKind.END)
    emit(0, EventKind.JOIN, 1)
    emit(0, EventKind.END)
    return Trace(events)


class TestGrowth:
    @pytest.mark.parametrize("gc_window", [0, 7, 64])
    @pytest.mark.parametrize("chunk", [1, 13, 10_000])
    def test_forks_past_the_initial_capacity(self, gc_window, chunk):
        trace = wide_fork_stream()
        lines = [format_event(e) for e in trace]
        analyzer = SessionAnalyzer(SessionConfig(
            name="wide", gc_window=gc_window, vindicate_all=True))
        for i in range(0, len(lines), chunk):
            analyzer.feed_lines(lines[i:i + chunk])
        # The test exercises what it claims: the clocks grew, and the
        # stream numbered the threads as the batch trace does.
        assert len(trace.tid_names) > 8
        for detector in (analyzer.hb, analyzer.wcp, analyzer.dc):
            assert detector._cap >= len(trace.tid_names) > 8
        assert analyzer.trace.tid_names == trace.tid_names
        assert analyzer.dc.report.races  # the children race
        document = analyzer.finish()
        assert normalize(document) == normalize(
            Vindicator(vindicate_all=True).run(trace).to_document())
        if gc_window:
            assert analyzer.gc_runs > 0

    def test_sessions_run_the_epoch_detectors(self):
        analyzer = SessionAnalyzer(SessionConfig(name="kinds"))
        assert type(analyzer.hb) is EpochHBDetector
        assert type(analyzer.wcp) is EpochWCPDetector
        assert type(analyzer.dc) is EpochDCDetector


# ----------------------------------------------------------------------
# Rejected events
# ----------------------------------------------------------------------
#: A fork-closed stream with nested locks, a volatile, a fork, a join
#: and begin/end markers.
GOOD_LINES = [
    "T1 begin", "T1 fork T2", "T1 acq m", "T1 wr x", "T2 begin",
    "T2 acq n", "T2 acq o", "T2 rd y", "T2 rel o", "T2 rel n",
    "T2 vwr v", "T1 rel m", "T2 acq m", "T2 wr x", "T2 rel m",
    "T2 end", "T1 vrd v", "T1 join T2", "T1 rd x", "T1 wr y", "T1 end",
]

#: Name -> (events accepted before the bad one, the bad line, the
#: start of the error message). Each bad line is rejected by one check.
BAD_LINES = {
    "unheld_release": (5, "T2 rel m", "rel(m)@T2#5: releases lock 'm' "
                       "not held by thread 2"),
    "double_acquire": (5, "T2 acq m", "acq(m)@T2#5: lock 'm' already held "
                       "by thread 1"),
    "nesting_order": (7, "T2 rel n", "rel(n)@T2#7: releases lock 'n' out "
                      "of nesting order"),
    "self_fork": (3, "T1 fork T1", "fork(1)@T1#3: thread forks itself"),
    "double_fork": (4, "T1 fork T2", "fork(2)@T1#4: thread 2 forked twice"),
    "double_join": (18, "T1 join T2", "join(2)@T1#18: thread 2 joined "
                    "twice"),
    "after_join": (18, "T2 wr x", "wr(x)@T2#18: thread 2 executes after "
                   "its join"),
    "after_end": (16, "T2 rd x", "rd(x)@T2#16: thread 2 executes after "
                  "its end"),
    "late_begin": (6, "T2 begin", "begin()@T2#6: begin is not thread's "
                   "first event"),
    "unforked_thread": (4, "T3 wr x", "wr(x)@T3#4: thread 3 appears "
                        "without a fork"),
}

#: Name -> the bad event at stream position 5 (after ``GOOD_LINES[:5]``),
#: for the checks no text line can reach.
BAD_EVENTS = {
    "eid_mismatch": (Event(6, 2, EventKind.WRITE, "x"),
                     "event id does not match stream position 5"),
    "access_without_target": (Event(5, 2, EventKind.WRITE, None),
                              "access without a target"),
    "volatile_without_target": (Event(5, 2, EventKind.VOLATILE_READ, None),
                                "access without a target"),
    "acquire_without_target": (Event(5, 2, EventKind.ACQUIRE, None),
                               "acquire without a target"),
    "release_without_target": (Event(5, 2, EventKind.RELEASE, None),
                               "release without a target"),
}


def trace_state(trace):
    """Everything a stream records, as plain values."""
    return {
        "events": list(trace.events),
        "columns": (bytes(trace.codes), list(trace.tix), list(trace.tgt),
                    list(trace.loc), list(trace.held), list(trace.local_time),
                    list(trace.enclosing_acquires),
                    dict(trace.marker_targets)),
        "tables": (list(trace.tid_names), dict(trace.tid_index),
                   list(trace.var_names), list(trace.lock_names),
                   list(trace.vol_names)),
        "threads": ([list(eids) for eids in trace.thread_eids],
                    trace.threads),
        "matching": (dict(trace._match_rel), dict(trace._match_acq)),
        "liveness": (set(trace._forked), set(trace._joined),
                     set(trace._ended), set(trace._stopped)),
    }


class TestRejectedEvents:
    def _finish_alike(self, analyzer, before):
        """After a rejection: the stream is unchanged, accepts the rest
        of the good stream and ends in the single-shot document."""
        assert trace_state(analyzer.trace) == before
        analyzer.feed_lines(GOOD_LINES[len(before["events"]):])
        expected = Vindicator(vindicate_all=True).run(
            loads_trace("\n".join(GOOD_LINES)))
        assert normalize(analyzer.finish()) == normalize(
            expected.to_document())

    @pytest.mark.parametrize("name", sorted(BAD_LINES))
    def test_bad_line_leaves_the_trace_unchanged(self, name):
        accepted, line, message = BAD_LINES[name]
        analyzer = SessionAnalyzer(SessionConfig(
            name=name, gc_window=3, vindicate_all=True))
        analyzer.feed_lines(GOOD_LINES[:accepted])
        before = trace_state(analyzer.trace)
        with pytest.raises(MalformedTraceError) as excinfo:
            analyzer.feed_lines([line])
        assert str(excinfo.value).startswith(message), str(excinfo.value)
        assert excinfo.value.event_index == accepted
        self._finish_alike(analyzer, before)

    @pytest.mark.parametrize("name", sorted(BAD_EVENTS))
    def test_bad_event_leaves_the_trace_unchanged(self, name):
        event, message = BAD_EVENTS[name]
        analyzer = SessionAnalyzer(SessionConfig(
            name=name, gc_window=3, vindicate_all=True))
        analyzer.feed_lines(GOOD_LINES[:5])
        before = trace_state(analyzer.trace)
        with pytest.raises(MalformedTraceError, match=message) as excinfo:
            analyzer.feed_events([event])
        assert excinfo.value.event_index == 5
        self._finish_alike(analyzer, before)

    @pytest.mark.parametrize("line,message", [
        ("T1 fork T3", "thread 3 executes before its fork"),
        ("T4 acq m", "lock 'm' already held by thread 1"),
        ("T4 rel m", "releases lock 'm' not held by thread 4"),
    ])
    def test_bad_line_without_gc_leaves_the_trace_unchanged(self, line,
                                                             message):
        # Without GC a thread may run unforked: forking it later is
        # rejected, and so is a new thread's first event that fails a
        # lock check.
        lines = ["T1 wr x", "T3 rd x", "T1 acq m", "T3 wr y", "T1 rel m"]
        analyzer = SessionAnalyzer(SessionConfig(
            name="unforked", gc_window=0, vindicate_all=True))
        analyzer.feed_lines(lines[:3])
        before = trace_state(analyzer.trace)
        with pytest.raises(MalformedTraceError, match=message):
            analyzer.feed_lines([line])
        assert trace_state(analyzer.trace) == before
        analyzer.feed_lines(lines[3:])
        expected = Vindicator(vindicate_all=True).run(
            loads_trace("\n".join(lines)))
        assert normalize(analyzer.finish()) == normalize(
            expected.to_document())


# ----------------------------------------------------------------------
# Frame parsing
# ----------------------------------------------------------------------
_TID_TOKENS = ["T1", "t2", "3", "T10", "main", "worker-7", "T", "t0x", "#T1"]
_OPS = ["rd", "wr", "acq", "rel", "fork", "join", "begin", "end", "vrd",
        "vwr", "read", "RD", "", "#"]
_TARGETS = ["x", "m", "T2", "4", "obj.field", "#y"]
_LOCS = ["Foo.java:12", "A.b():3 extra words", "  spaced  "]


@st.composite
def text_lines(draw):
    shape = draw(st.integers(0, 9))
    if shape == 0:
        return draw(st.sampled_from(["", "   ", "# a comment",
                                     "  # indented comment", "\t"]))
    fields = [draw(st.sampled_from(_TID_TOKENS))]
    if shape > 1:
        fields.append(draw(st.sampled_from(_OPS)))
    if shape > 2:
        fields.append(draw(st.sampled_from(_TARGETS)))
    if shape > 5:
        fields.append(draw(st.sampled_from(_LOCS)))
    sep = draw(st.sampled_from([" ", "  ", "\t"]))
    line = sep.join(f for f in fields if f)
    return draw(st.sampled_from(["", " "])) + line + draw(
        st.sampled_from(["", " ", "\n"]))


def by_line(lines, first_eid, numbers=None):
    """:func:`parse_event_line` over ``lines``: the events, or the
    first error. ``numbers``, when given, collects the events' line
    numbers."""
    events = []
    for number, line in enumerate(lines, start=1):
        try:
            event = parse_event_line(line, eid=first_eid + len(events),
                                     line_number=number)
        except TraceFormatError as exc:
            return None, (str(exc), exc.line_number)
        if event is not None:
            events.append(event)
            if numbers is not None:
                numbers.append(number)
    return events, None


def parsed(lines, first_eid, tids, strings, line_map=None):
    """:func:`parse_lines`'s rows for ``lines`` as events numbered from
    ``first_eid``."""
    return [Event(first_eid + i, tid, KIND_BY_CODE[code], target, loc)
            for i, (tid, code, target, loc)
            in enumerate(parse_lines(lines, tids, strings, line_map))]


def fields(events):
    return [(e.eid, e.tid, type(e.tid), e.kind, e.target, type(e.target),
             e.loc) for e in events]


class TestFrameParsing:
    @settings(max_examples=200, deadline=None)
    @given(frames=st.lists(st.lists(text_lines(), max_size=12),
                           min_size=1, max_size=4))
    def test_matches_parse_event_line(self, frames):
        tids, strings = {}, {}
        eid = 0
        for lines in frames:
            numbers = []
            expected, error = by_line(lines, eid, numbers)
            if error is not None:
                with pytest.raises(TraceFormatError) as excinfo:
                    parsed(lines, eid, tids, strings)
                assert (str(excinfo.value),
                        excinfo.value.line_number) == error
                continue
            line_map = LineMap()
            events = parsed(lines, eid, tids, strings, line_map)
            assert fields(events) == fields(expected)
            assert line_map.events == len(events)
            assert [line_map.line(i) for i in range(len(events))] == numbers
            eid += len(events)

    def test_a_bad_line_rejects_the_whole_frame(self):
        analyzer = SessionAnalyzer(SessionConfig(name="frames"))
        assert analyzer.feed_lines(["T1 begin", "T1 wr x"]) == 2
        frame = ["T1 rd x", "# fine", "T1 frobnicate x", "T1 wr y"]
        with pytest.raises(TraceFormatError) as excinfo:
            analyzer.feed_lines(frame)
        _, error = by_line(frame, 2)
        assert (str(excinfo.value), excinfo.value.line_number) == error
        assert excinfo.value.line_number == 3
        assert len(analyzer.trace) == 2  # nothing of the frame accepted
        assert analyzer.feed_lines(["T1 rd x"]) == 1
