"""Unit tests for traces: validation, paper notation, and the builder."""

import pytest

from repro.core.events import Event, EventKind
from repro.core.exceptions import MalformedTraceError
from repro.core.trace import Trace, TraceBuilder


def simple_trace():
    return (TraceBuilder()
            .wr(1, "x")
            .acq(1, "m")
            .wr(1, "y")
            .rel(1, "m")
            .acq(2, "m")
            .rd(2, "y")
            .rel(2, "m")
            .rd(2, "x")
            .build())


class TestValidation:
    def test_eids_must_match_positions(self):
        events = [Event(5, 1, EventKind.WRITE, "x")]
        with pytest.raises(MalformedTraceError, match="eid"):
            Trace(events)

    def test_from_events_renumbers(self):
        events = [Event(5, 1, EventKind.WRITE, "x"),
                  Event(9, 2, EventKind.READ, "x")]
        trace = Trace.from_events(events)
        assert [e.eid for e in trace] == [0, 1]

    def test_double_acquire_rejected(self):
        with pytest.raises(MalformedTraceError, match="already held"):
            TraceBuilder().acq(1, "m").acq(2, "m").build()

    def test_reentrant_acquire_rejected(self):
        with pytest.raises(MalformedTraceError, match="already held"):
            TraceBuilder().acq(1, "m").acq(1, "m").build()

    def test_release_without_acquire_rejected(self):
        with pytest.raises(MalformedTraceError, match="not held"):
            TraceBuilder().rel(1, "m").build()

    def test_release_by_wrong_thread_rejected(self):
        with pytest.raises(MalformedTraceError, match="not held"):
            TraceBuilder().acq(1, "m").rel(2, "m").build()

    def test_unnested_release_rejected(self):
        with pytest.raises(MalformedTraceError, match="nesting"):
            TraceBuilder().acq(1, "m").acq(1, "n").rel(1, "m").build()

    def test_nested_locks_accepted(self):
        trace = (TraceBuilder()
                 .acq(1, "m").acq(1, "n").rel(1, "n").rel(1, "m").build())
        assert len(trace) == 4

    def test_open_critical_section_accepted(self):
        trace = TraceBuilder().acq(1, "m").wr(1, "x").build()
        assert len(trace) == 2

    def test_fork_self_rejected(self):
        with pytest.raises(MalformedTraceError, match="forks itself"):
            TraceBuilder().fork(1, 1).build()

    def test_double_fork_rejected(self):
        with pytest.raises(MalformedTraceError, match="forked twice"):
            TraceBuilder().fork(1, 2).fork(3, 2).build()

    def test_event_before_fork_rejected(self):
        with pytest.raises(MalformedTraceError, match="before its fork"):
            TraceBuilder().wr(2, "x").fork(1, 2).build()

    def test_event_after_join_rejected(self):
        with pytest.raises(MalformedTraceError, match="after its join"):
            TraceBuilder().wr(2, "x").join(1, 2).wr(2, "y").build()

    def test_double_join_rejected(self):
        with pytest.raises(MalformedTraceError, match="joined twice"):
            TraceBuilder().join(1, 2).join(1, 2).build()

    def test_begin_must_be_first(self):
        with pytest.raises(MalformedTraceError, match="first"):
            TraceBuilder().wr(1, "x").begin(1).build()

    def test_end_must_be_last(self):
        with pytest.raises(MalformedTraceError, match="last"):
            TraceBuilder().end(1).wr(1, "x").build()

    def test_validation_can_be_disabled(self):
        # Out-of-nesting-order releases are tolerated without validation
        # (lock matching still requires releases to match a held acquire).
        t = (TraceBuilder().acq(1, "m").acq(1, "n").rel(1, "m").rel(1, "n")
             .build(validate=False))
        assert len(t) == 4
        with pytest.raises(MalformedTraceError):
            (TraceBuilder().acq(1, "m").acq(1, "n").rel(1, "m").rel(1, "n")
             .build(validate=True))


class TestPaperNotation:
    def test_acquire_of(self):
        trace = simple_trace()
        rel_t1 = trace[3]
        assert trace.acquire_of(rel_t1) is trace[1]

    def test_release_of(self):
        trace = simple_trace()
        assert trace.release_of(trace[1]) is trace[3]
        assert trace.release_of(trace[4]) is trace[6]

    def test_release_of_open_section_is_none(self):
        trace = TraceBuilder().acq(1, "m").wr(1, "x").build()
        assert trace.release_of(trace[0]) is None

    def test_critical_section_members(self):
        trace = simple_trace()
        cs = trace.critical_section(trace[3])
        assert [e.eid for e in cs] == [1, 2, 3]

    def test_critical_section_includes_nested(self):
        trace = (TraceBuilder()
                 .acq(1, "m").acq(1, "n").wr(1, "x").rel(1, "n").rel(1, "m")
                 .build())
        outer = trace.critical_section(trace[4])
        assert [e.eid for e in outer] == [0, 1, 2, 3, 4]
        inner = trace.critical_section(trace[3])
        assert [e.eid for e in inner] == [1, 2, 3]

    def test_held_locks_nested(self):
        trace = (TraceBuilder()
                 .acq(1, "m").acq(1, "n").wr(1, "x").rel(1, "n").rel(1, "m")
                 .build())
        assert trace.held_locks(trace[2]) == ("m", "n")
        assert trace.held_locks(trace[0]) == ("m",)
        assert trace.held_locks(trace[3]) == ("m", "n")
        assert trace.held_locks(trace[4]) == ("m",)

    def test_held_locks_outside_cs_empty(self):
        trace = simple_trace()
        assert trace.held_locks(trace[0]) == ()
        assert trace.held_locks(trace[7]) == ()

    def test_program_ordered(self):
        trace = simple_trace()
        assert trace.program_ordered(trace[0], trace[1])
        assert not trace.program_ordered(trace[1], trace[0])
        assert not trace.program_ordered(trace[0], trace[7])  # cross-thread


class TestAccessors:
    def test_threads_in_first_appearance_order(self):
        assert simple_trace().threads == [1, 2]

    def test_events_of(self):
        trace = simple_trace()
        assert [e.eid for e in trace.events_of(1)] == [0, 1, 2, 3]
        assert trace.events_of("missing") == []

    def test_eids_of(self):
        trace = simple_trace()
        assert list(trace.eids_of(1)) == [0, 1, 2, 3]
        assert list(trace.eids_of("missing")) == []

    def test_local_time_counts_per_thread(self):
        trace = simple_trace()
        assert trace.local_time[0] == 1
        assert trace.local_time[3] == 4
        assert trace.local_time[4] == 1  # thread 2's first event

    def test_variables_and_locks(self):
        trace = simple_trace()
        assert trace.variables() == {"x", "y"}
        assert trace.locks() == {"m"}

    def test_accesses_iterator(self):
        assert sum(1 for _ in simple_trace().accesses()) == 4

    def test_conflicting_pairs(self):
        pairs = {(a.eid, b.eid) for a, b in simple_trace().conflicting_pairs()}
        assert pairs == {(0, 7), (2, 5)}

    def test_len_iter_getitem(self):
        trace = simple_trace()
        assert len(trace) == 8
        assert list(trace)[0] is trace[0]

    def test_repr(self):
        assert "8 events" in repr(simple_trace())


class TestBuilder:
    def test_sync_idiom_expands_to_four_events(self):
        trace = TraceBuilder().sync(1, "o").build()
        kinds = [e.kind for e in trace]
        assert kinds == [EventKind.ACQUIRE, EventKind.READ, EventKind.WRITE,
                         EventKind.RELEASE]
        assert trace[1].target == "oVar"

    def test_builder_loc_propagates(self):
        trace = TraceBuilder().wr(1, "x", loc="A.b():3").build()
        assert trace[0].loc == "A.b():3"

    def test_volatile_ops(self):
        trace = TraceBuilder().vwr(1, "v").vrd(2, "v").build()
        assert trace[0].kind is EventKind.VOLATILE_WRITE
        assert trace[1].kind is EventKind.VOLATILE_READ

    def test_begin_end_markers(self):
        trace = TraceBuilder().begin(1).wr(1, "x").end(1).build()
        assert trace[0].kind is EventKind.BEGIN
        assert trace[2].kind is EventKind.END
