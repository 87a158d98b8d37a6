"""Unit tests for the DC detector and its constraint-graph construction."""

import pytest

from repro.core.exceptions import MalformedTraceError
from repro.core.trace import TraceBuilder
from repro.analysis.dc import DCDetector
from repro.analysis.smarttrack import EpochDCDetector, EpochWCPDetector
from repro.analysis.hb import HBDetector
from repro.analysis.wcp import WCPDetector
from repro.traces.litmus import figure1, figure2


def races_of(trace):
    return [(r.first.eid, r.second.eid)
            for r in DCDetector().analyze(trace).races]


class TestDCWeakerThanWCP:
    def test_no_sync_order_join(self):
        # Passing through a lock does not DC-order (same as WCP).
        trace = (TraceBuilder()
                 .wr(1, "x").acq(1, "m").rel(1, "m")
                 .acq(2, "m").rel(2, "m").rd(2, "x")
                 .build())
        assert races_of(trace) == [(0, 5)]

    def test_no_hb_composition(self):
        # Figure 2: WCP orders the pair through HB composition; DC does not.
        trace = figure2()
        assert WCPDetector().analyze(trace).dynamic_count == 0
        assert races_of(trace) == [(0, 11)]

    def test_figure1_is_also_dc_race(self):
        assert races_of(figure1()) == [(0, 7)]

    def test_rule_a_still_orders(self):
        trace = (TraceBuilder()
                 .acq(1, "m").wr(1, "x").rel(1, "m")
                 .acq(2, "m").rd(2, "x").rel(2, "m")
                 .build())
        assert races_of(trace) == []

    def test_rule_b_with_po_composition(self):
        # rel1 ≺DC rel2 via rule (b), and PO carries the ordering to the
        # trailing read.
        trace = (TraceBuilder()
                 .acq(1, "m").wr(1, "y").wr(1, "x").rel(1, "m")
                 .acq(2, "m").rd(2, "y").rel(2, "m")
                 .rd(2, "x")
                 .build())
        assert races_of(trace) == []

    def test_fork_join_order_directly(self):
        trace = (TraceBuilder()
                 .wr(1, "x").fork(1, 2).rd(2, "x")
                 .wr(2, "y").join(3, 2).rd(3, "y")
                 .build())
        assert races_of(trace) == []

    def test_volatile_orders_directly(self):
        trace = (TraceBuilder()
                 .wr(1, "x").vwr(1, "v").vrd(2, "v").rd(2, "x").build())
        assert races_of(trace) == []


class TestSubsetProperty:
    @pytest.mark.parametrize("seed", range(20))
    def test_wcp_races_are_dc_races(self, seed):
        """Every access where WCP detects a race, DC detects one too."""
        from repro.traces.gen import random_trace, GeneratorConfig
        trace = random_trace(seed, GeneratorConfig(threads=3, events=30,
                                                   locks=2, variables=3))
        wcp = WCPDetector()
        wcp.analyze(trace)
        dc = DCDetector(build_graph=False)
        dc.analyze(trace)
        for eid, priors in wcp.racing_at.items():
            assert eid in dc.racing_at
            assert priors <= dc.racing_at[eid]

    @pytest.mark.parametrize("seed", range(20))
    def test_hb_races_are_wcp_races(self, seed):
        from repro.traces.gen import random_trace, GeneratorConfig
        trace = random_trace(seed, GeneratorConfig(threads=3, events=30,
                                                   locks=2, variables=3))
        hb = HBDetector()
        hb.analyze(trace)
        wcp = WCPDetector()
        wcp.analyze(trace)
        for eid, priors in hb.racing_at.items():
            assert eid in wcp.racing_at
            assert priors <= wcp.racing_at[eid]


class TestConstraintGraph:
    def test_reachability_matches_dc_clocks(self):
        """The paper's invariant: e ≺DC e' iff e ⇝G e'."""
        from repro.traces.gen import random_trace, GeneratorConfig
        for seed in range(8):
            trace = random_trace(seed, GeneratorConfig(threads=3, events=25,
                                                       locks=2, variables=2))
            det = DCDetector(build_graph=True)
            det.begin_trace(trace)
            snaps = []
            for e in trace:
                det.handle(e)
                snaps.append(det.clock_of(e.tid).copy())
            for j, ej in enumerate(trace):
                descendants = det.graph.descendants([j])
                for i in range(j):
                    ei = trace[i]
                    if ei.tid == ej.tid:
                        continue
                    clock_ordered = snaps[j].get(ei.tid) >= trace.local_time[i]
                    graph_ordered = j in det.graph.descendants([i])
                    assert clock_ordered == graph_ordered, (seed, i, j)
            assert descendants is not None  # silence lints

    def test_po_edges_chain_threads(self):
        trace = TraceBuilder().wr(1, "x").rd(1, "x").wr(2, "y").build()
        det = DCDetector()
        det.analyze(trace)
        assert det.graph.has_edge(0, 1)
        assert not det.graph.has_edge(1, 2)

    def test_rule_a_edge_from_release_to_access(self):
        trace = (TraceBuilder()
                 .acq(1, "m").wr(1, "x").rel(1, "m")
                 .acq(2, "m").rd(2, "x").rel(2, "m")
                 .build())
        det = DCDetector()
        det.analyze(trace)
        assert det.graph.has_edge(2, 4)  # rel(m)T1 -> rd(x)T2

    def test_edge_minimisation_skips_implied_edges(self):
        # The second read of x inside the same critical section is already
        # ordered; no duplicate rule (a) edge is added for it.
        trace = (TraceBuilder()
                 .acq(1, "m").wr(1, "x").rel(1, "m")
                 .acq(2, "m").rd(2, "x").rd(2, "x").rel(2, "m")
                 .build())
        det = DCDetector()
        det.analyze(trace)
        assert det.graph.has_edge(2, 4)
        assert not det.graph.has_edge(2, 5)

    def test_forced_race_edge_added(self):
        trace = TraceBuilder().wr(1, "x").wr(2, "x").build()
        det = DCDetector()
        det.analyze(trace)
        assert det.graph.has_edge(0, 1)

    def test_fork_edge_added(self):
        trace = TraceBuilder().fork(1, 2).wr(2, "x").build()
        det = DCDetector()
        det.analyze(trace)
        assert det.graph.has_edge(0, 1)

    def test_join_edge_added(self):
        trace = TraceBuilder().wr(2, "x").join(1, 2).build()
        det = DCDetector()
        det.analyze(trace)
        assert det.graph.has_edge(0, 1)

    def test_volatile_edges_added(self):
        trace = TraceBuilder().vwr(1, "v").vrd(2, "v").build()
        det = DCDetector()
        det.analyze(trace)
        assert det.graph.has_edge(0, 1)

    def test_graph_disabled(self):
        trace = TraceBuilder().wr(1, "x").wr(2, "x").build()
        det = DCDetector(build_graph=False)
        det.analyze(trace)
        assert det.graph.edge_count == 0

    def test_graph_counter(self):
        trace = (TraceBuilder()
                 .acq(1, "m").wr(1, "x").rel(1, "m")
                 .acq(2, "m").rd(2, "x").rel(2, "m")
                 .build())
        report = DCDetector().analyze(trace)
        assert report.counters.get("graph_edges", 0) >= 1


class TestMalformedStreams:
    """Regression: a malformed event stream must raise MalformedTraceError,
    not leak internal KeyError/AssertionError (streaming callers bypass
    Trace's construction-time validation)."""

    def test_release_without_acquire(self):
        trace = TraceBuilder().acq(1, "m").rel(1, "m").build()
        det = DCDetector()
        det.begin_trace(trace)
        # Feed the release without its acquire.
        with pytest.raises(MalformedTraceError) as exc:
            det.handle(trace.events[1])
        assert exc.value.event_index == 1

    def test_release_by_wrong_thread(self):
        trace = (TraceBuilder()
                 .acq(1, "m").rel(1, "m")
                 .acq(2, "m").rel(2, "m")
                 .build())
        det = DCDetector()
        det.begin_trace(trace)
        det.handle(trace.events[0])  # t1 acquires m ...
        with pytest.raises(MalformedTraceError):
            det.handle(trace.events[3])  # ... but t2 releases it

    def test_well_formed_stream_unaffected(self):
        trace = (TraceBuilder()
                 .acq(1, "m").wr(1, "x").rel(1, "m")
                 .acq(2, "m").rd(2, "x").rel(2, "m")
                 .build())
        assert DCDetector().analyze(trace).races == []


class TestChildlessForkJoin:
    """Regression: joining a child that never executed an event must still
    consume the pending fork — joining the parent's clock at the fork and
    adding the fork→join edge — instead of silently dropping both."""

    #: wr(x) by parent; fork of a child with no events; a third thread
    #: joins the child and reads x. The fork→join ordering makes the
    #: read race-free.
    def _trace(self):
        return (TraceBuilder()
                .wr(1, "x").fork(1, 2)
                .join(3, 2).rd(3, "x")
                .build())

    @pytest.mark.parametrize("detector_cls", [
        DCDetector, HBDetector, WCPDetector,
        EpochDCDetector, EpochWCPDetector,
    ], ids=lambda c: c.__name__)
    def test_no_race_through_childless_join(self, detector_cls):
        report = detector_cls().analyze(self._trace())
        assert report.races == []

    def test_fork_join_edge_added_to_graph(self):
        det = DCDetector()
        det.analyze(self._trace())
        assert det.graph.has_edge(1, 2)  # fork(1,2) -> join(3,2)

    def test_pending_fork_consumed(self):
        det = DCDetector()
        det.analyze(self._trace())
        assert det._pending_fork == {}

    def test_join_of_unforked_silent_thread_is_noop(self):
        trace = TraceBuilder().wr(1, "x").join(1, 9).build()
        report = DCDetector().analyze(trace)
        assert report.races == []


class TestTransitiveForceKnob:
    def test_dependent_race_suppressed_by_default(self):
        from repro.traces.litmus import figure4b
        det = DCDetector()
        report = det.analyze(figure4b())
        pairs = [(r.first.eid, r.second.eid) for r in report.races]
        assert (0, 4) not in pairs

    def test_dependent_race_surfaces_without_transitive_force(self):
        from repro.traces.litmus import figure4b
        det = DCDetector()
        det.transitive_force = False
        report = det.analyze(figure4b())
        pairs = [(r.first.eid, r.second.eid) for r in report.races]
        assert (0, 4) in pairs
