"""Unit tests for the happens-before detector."""

from repro.core.trace import TraceBuilder
from repro.analysis.hb import HBDetector


def races_of(trace):
    return [(r.first.eid, r.second.eid) for r in HBDetector().analyze(trace).races]


class TestRaceDetection:
    def test_plain_write_write_race(self):
        trace = TraceBuilder().wr(1, "x").wr(2, "x").build()
        assert races_of(trace) == [(0, 1)]

    def test_plain_write_read_race(self):
        trace = TraceBuilder().wr(1, "x").rd(2, "x").build()
        assert races_of(trace) == [(0, 1)]

    def test_read_read_is_not_a_race(self):
        trace = TraceBuilder().rd(1, "x").rd(2, "x").build()
        assert races_of(trace) == []

    def test_read_then_write_race(self):
        trace = TraceBuilder().rd(1, "x").wr(2, "x").build()
        assert races_of(trace) == [(0, 1)]

    def test_same_thread_never_races(self):
        trace = TraceBuilder().wr(1, "x").wr(1, "x").rd(1, "x").build()
        assert races_of(trace) == []

    def test_lock_protected_accesses_do_not_race(self):
        trace = (TraceBuilder()
                 .acq(1, "m").wr(1, "x").rel(1, "m")
                 .acq(2, "m").rd(2, "x").rel(2, "m")
                 .build())
        assert races_of(trace) == []

    def test_sync_order_transitively_orders(self):
        # T1 writes x, releases m; T2 acquires m, reads x: ordered.
        trace = (TraceBuilder()
                 .wr(1, "x").acq(1, "m").rel(1, "m")
                 .acq(2, "m").rel(2, "m").rd(2, "x")
                 .build())
        assert races_of(trace) == []

    def test_different_locks_do_not_order(self):
        trace = (TraceBuilder()
                 .wr(1, "x").acq(1, "m").rel(1, "m")
                 .acq(2, "n").rel(2, "n").rd(2, "x")
                 .build())
        assert races_of(trace) == [(0, 5)]

    def test_figure1_has_no_hb_race(self):
        from repro.traces.litmus import figure1
        assert races_of(figure1()) == []


class TestShortestRaceRecording:
    def test_race_recorded_against_latest_prior(self):
        # Two unordered prior writes by different threads; the race pairs
        # the read with the later one.
        trace = (TraceBuilder()
                 .wr(1, "x").wr(2, "x").rd(3, "x").build())
        report = HBDetector().analyze(trace)
        # wr-wr race first, then the read races with the *latest* write.
        assert (1, 2) in [(r.first.eid, r.second.eid) for r in report.races]

    def test_racing_at_contains_all_unordered_priors(self):
        trace = TraceBuilder().wr(1, "x").wr(2, "x").build()
        det = HBDetector()
        det.analyze(trace)
        assert det.racing_at[1] == frozenset({0})

    def test_one_race_per_access(self):
        # A write racing with both a prior write and a prior read still
        # records a single dynamic race.
        trace = (TraceBuilder()
                 .wr(1, "x").rd(2, "x").wr(3, "x").build())
        report = HBDetector().analyze(trace)
        seconds = [r.second.eid for r in report.races]
        assert seconds.count(2) == 1


class TestForcedOrdering:
    def test_forced_order_suppresses_dependent_race(self):
        # After the race (0, 1) is reported, the pair is force-ordered, so
        # thread 2's next read of x does not race with event 0 again.
        trace = TraceBuilder().wr(1, "x").wr(2, "x").rd(2, "x").build()
        assert races_of(trace) == [(0, 1)]

    def test_force_order_disabled_keeps_clocks_pure(self):
        trace = TraceBuilder().wr(1, "x").rd(2, "x").rd(2, "x").build()
        det = HBDetector()
        det.force_order = False
        report = det.analyze(trace)
        # Without forcing, both reads race with the unordered write.
        assert [(r.first.eid, r.second.eid) for r in report.races] == \
            [(0, 1), (0, 2)]


class TestThreadEdges:
    def test_fork_orders_parent_before_child(self):
        trace = (TraceBuilder()
                 .wr(1, "x").fork(1, 2).rd(2, "x").build())
        assert races_of(trace) == []

    def test_parent_after_fork_races_with_child(self):
        trace = (TraceBuilder()
                 .fork(1, 2).wr(1, "x").rd(2, "x").build())
        assert races_of(trace) == [(1, 2)]

    def test_join_orders_child_before_parent(self):
        trace = (TraceBuilder()
                 .wr(2, "x").join(1, 2).rd(1, "x").build())
        assert races_of(trace) == []

    def test_no_join_leaves_unordered(self):
        trace = TraceBuilder().wr(2, "x").rd(1, "x").build()
        assert races_of(trace) == [(0, 1)]


class TestVolatiles:
    def test_volatile_write_read_orders(self):
        trace = (TraceBuilder()
                 .wr(1, "x").vwr(1, "flag")
                 .vrd(2, "flag").rd(2, "x")
                 .build())
        assert races_of(trace) == []

    def test_volatile_read_alone_does_not_order(self):
        # No volatile write happened: the later read is unordered.
        trace = (TraceBuilder()
                 .wr(1, "x").vrd(2, "flag").rd(2, "x").build())
        assert races_of(trace) == [(0, 2)]

    def test_volatile_accesses_are_not_race_candidates(self):
        trace = TraceBuilder().vwr(1, "v").vwr(2, "v").build()
        assert races_of(trace) == []

    def test_volatile_write_after_read_orders(self):
        trace = (TraceBuilder()
                 .wr(1, "x").vrd(1, "v")
                 .vwr(2, "v").rd(2, "x")
                 .build())
        assert races_of(trace) == []


class TestQueries:
    def test_ordered_to_current_same_thread(self):
        trace = TraceBuilder().wr(1, "x").rd(1, "x").build()
        det = HBDetector()
        det.analyze(trace)
        assert det.ordered_to_current(trace[0], 1)

    def test_ordered_to_current_cross_thread(self):
        trace = (TraceBuilder()
                 .wr(1, "x").acq(1, "m").rel(1, "m")
                 .acq(2, "m").rel(2, "m")
                 .build())
        det = HBDetector()
        det.analyze(trace)
        assert det.ordered_to_current(trace[0], 2)
        assert not det.ordered_to_current(trace[4], 1)

    def test_streaming_api(self):
        trace = TraceBuilder().wr(1, "x").wr(2, "x").build()
        det = HBDetector()
        det.begin_trace(trace)
        for e in trace:
            det.handle(e.eid)
        assert det.finish().dynamic_count == 1
