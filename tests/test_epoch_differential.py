"""Differential tests: whole-trace ``analyze()`` vs per-event streaming.

The epoch detectors (:class:`~repro.analysis.smarttrack.EpochHBDetector`,
:class:`~repro.analysis.smarttrack.EpochWCPDetector` and
:class:`~repro.analysis.smarttrack.EpochDCDetector`) are the
production HB/WCP/DC path. ``analyze()`` runs a whole trace through
them; a streaming caller drives the same detector by hand through
``begin_trace``/``handle``/``finish``. Both ways must be
*bit-identical* to each other and to
:class:`~repro.analysis.hb.HBDetector` /
:class:`~repro.analysis.wcp.WCPDetector` /
:class:`~repro.analysis.dc.DCDetector`: same races in the same order,
same ``racing_at`` sets, same counters, the same constraint-graph edge
set once program order is expanded (vindication reads the graph in
ascending eid order wherever order matters), and the same end-of-trace
clocks, under every ``force_order`` / ``transitive_force``
combination.

The adversarial cases aim at the edges of a whole-trace fast path:
fork consumption by a thread-local first event, joins whose child ran
only thread-local events, held accesses to single- vs multi-accessor
variables (the epoch detectors' exclusive fast path vs promotion to
shared state), program-order graph edges around synchronisation, and
streaming error parity.
"""

from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.dc import DCDetector
from repro.analysis.hb import HBDetector
from repro.analysis.smarttrack import (EpochDCDetector, EpochHBDetector,
                                       EpochWCPDetector)
from repro.analysis.wcp import WCPDetector
from repro.core.events import EventKind
from repro.core.exceptions import MalformedTraceError
from repro.core.trace import TraceBuilder
from repro.runtime import execute
from repro.runtime.workloads import WORKLOADS
from repro.traces.gen import GeneratorConfig, random_trace
from repro.traces.litmus import ALL as LITMUS
from repro.traces.litmus import figure1, figure3
from repro.vindicate.vindicator import Vindicator

from documents import blank_timings

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

configs = st.builds(
    GeneratorConfig,
    threads=st.integers(2, 4),
    events=st.integers(6, 30),
    variables=st.integers(1, 3),
    locks=st.integers(1, 3),
    max_nesting=st.integers(1, 3),
    use_fork_join=st.booleans(),
    volatiles=st.integers(0, 1),
)

seeds = st.integers(0, 10_000)

FLAG_COMBOS = [(True, True), (True, False), (False, False)]
flag_combos = st.sampled_from(FLAG_COMBOS)


def stream(detector, trace):
    """Drive ``detector`` over ``trace`` one event at a time."""
    detector.begin_trace(trace)
    for event in trace:
        detector.handle(event.eid)
    return detector.finish()


def assert_equivalent(make_ref, make_fast, trace, flags=(True, True),
                      graphs=False):
    """The reference detector, the epoch detector's ``analyze()`` and
    the epoch detector driven per event agree in every observable."""
    dets = [make_ref(), make_fast(), make_fast()]
    reports = []
    for det, run in zip(dets, (type(dets[0]).analyze,
                               type(dets[1]).analyze, stream)):
        det.force_order, det.transitive_force = flags
        reports.append(run(det, trace))
    ref, fast, streamed = dets
    ref_report = reports[0]
    for det, report in zip((fast, streamed), reports[1:]):
        assert ([(r.first.eid, r.second.eid) for r in ref_report.races]
                == [(r.first.eid, r.second.eid) for r in report.races])
        assert dict(ref.racing_at) == dict(det.racing_at)
        assert ref_report.counters == report.counters
        if graphs:
            assert sorted(ref.graph.edges()) == sorted(det.graph.edges())
        # clock_of drives vindication re-queries: the end-of-trace
        # clocks must land exactly where the reference leaves them.
        for tid in trace.threads:
            a, b = ref.clock_of(tid), det.clock_of(tid)
            assert (a is None) == (b is None)
            if a is not None:
                assert {t: a.get(t) for t in trace.threads} == \
                       {t: b.get(t) for t in trace.threads}
    assert fast.fast_stats() == streamed.fast_stats()
    return fast


def accesses(trace):
    return sum(1 for e in trace
               if e.kind in (EventKind.READ, EventKind.WRITE))


class TestRandomTraces:
    @SETTINGS
    @given(seed=seeds, config=configs, flags=flag_combos)
    def test_wcp_differential(self, seed, config, flags):
        trace = random_trace(seed, config)
        assert_equivalent(WCPDetector, EpochWCPDetector, trace, flags)

    @SETTINGS
    @given(seed=seeds, config=configs, flags=flag_combos)
    def test_dc_differential_with_graph(self, seed, config, flags):
        trace = random_trace(seed, config)
        assert_equivalent(partial(DCDetector, build_graph=True),
                          partial(EpochDCDetector, build_graph=True),
                          trace, flags, graphs=True)

    @SETTINGS
    @given(seed=seeds, config=configs)
    def test_dc_differential_without_graph(self, seed, config):
        trace = random_trace(seed, config)
        assert_equivalent(partial(DCDetector, build_graph=False),
                          partial(EpochDCDetector, build_graph=False),
                          trace)


class TestLitmusAndWorkloads:
    @pytest.mark.parametrize("name", sorted(LITMUS))
    @pytest.mark.parametrize("flags", FLAG_COMBOS,
                             ids=["force+trans", "force", "off"])
    def test_litmus(self, name, flags):
        trace = LITMUS[name]()
        assert_equivalent(HBDetector, EpochHBDetector, trace, flags)
        assert_equivalent(WCPDetector, EpochWCPDetector, trace, flags)
        assert_equivalent(DCDetector, EpochDCDetector, trace, flags,
                          graphs=True)

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_workloads(self, name):
        trace = execute(WORKLOADS[name](scale=0.3), seed=3)
        assert_equivalent(HBDetector, EpochHBDetector, trace)
        assert_equivalent(WCPDetector, EpochWCPDetector, trace)
        fast = assert_equivalent(DCDetector, EpochDCDetector, trace,
                                 graphs=True)
        stats = fast.fast_stats()
        # The exclusive fast path must actually engage on a realistic
        # workload, and every access takes exactly one snapshot, copied
        # or reused.
        assert stats["epoch_exclusive_hits"] > 0
        assert (stats["snapshots_copied"] + stats["snapshots_reused"]
                == accesses(trace))


class TestAdversarial:
    def test_fork_consuming_access_stays_per_event(self):
        # t2's first event is a plain access to a thread-local variable:
        # exclusive by every other criterion, but it must consume the
        # pending fork snapshot (and add the fork edge for DC).
        trace = (TraceBuilder()
                 .wr(1, "x").fork(1, 2)
                 .wr(2, "y").wr(2, "y").wr(2, "y")
                 .join(1, 2).rd(1, "x")
                 .build())
        assert_equivalent(WCPDetector, EpochWCPDetector, trace)
        fast = assert_equivalent(DCDetector, EpochDCDetector, trace,
                                 graphs=True)
        assert fast.fast_stats()["epoch_exclusive_hits"] > 0

    def test_join_of_fully_batched_child(self):
        # Every event of t2 after the fork consumption is a thread-local
        # access; the join must still see the child's final clock
        # component.
        builder = TraceBuilder().wr(1, "x").fork(1, 2)
        for _ in range(6):
            builder.wr(2, "y")
        trace = builder.join(1, 2).wr(1, "y").build()
        assert_equivalent(WCPDetector, EpochWCPDetector, trace)
        assert_equivalent(DCDetector, EpochDCDetector, trace,
                          graphs=True)

    def test_held_single_accessor_accesses_are_batched(self):
        # Lock-protected accesses to a variable only one thread ever
        # touches do no observable rule (a) work: they must all take the
        # exclusive fast path, and verdicts/graph/counters must still
        # match the reference, which *does* run rule (a) recording.
        builder = TraceBuilder()
        for _ in range(4):
            builder.acq(1, "m").wr(1, "x").rd(1, "x").rel(1, "m")
        builder.fork(1, 2)
        for _ in range(4):
            builder.acq(2, "m").wr(2, "z").rel(2, "m")
        trace = builder.join(1, 2).rd(1, "x").build()
        fast = assert_equivalent(DCDetector, EpochDCDetector, trace,
                                 graphs=True)
        stats = fast.fast_stats()
        assert stats["epoch_exclusive_hits"] >= 13  # all of x's and z's
        assert stats["epoch_promotions"] == 0
        assert_equivalent(WCPDetector, EpochWCPDetector, trace)

    def test_held_shared_accesses_fall_back(self):
        # x is accessed by both threads under m: rule (a) joins real
        # cross-thread recordings, so x must leave the exclusive path.
        trace = (TraceBuilder()
                 .acq(1, "m").wr(1, "x").rel(1, "m")
                 .fork(1, 2)
                 .acq(2, "m").rd(2, "x").rel(2, "m")
                 .join(1, 2).wr(1, "x")
                 .build())
        fast = assert_equivalent(DCDetector, EpochDCDetector, trace,
                                 graphs=True)
        stats = fast.fast_stats()
        assert stats["epoch_promotions"] == 1
        assert stats["epoch_exclusive_hits"] == 1  # only the first write
        assert_equivalent(WCPDetector, EpochWCPDetector, trace)

    def test_po_edges_interleave_with_fallback_events(self):
        # Alternating thread-local accesses and sync events on two
        # threads: the epoch detector's implicit program order, expanded,
        # must give exactly the reference's edge set around the sync
        # events' edges.
        builder = TraceBuilder()
        for i in range(5):
            builder.wr(1, "a").acq(1, "m").rel(1, "m")
            builder.wr(2, "b").acq(2, "n").rel(2, "n")
        trace = builder.build()
        assert_equivalent(DCDetector, EpochDCDetector, trace, graphs=True)

    def test_streaming_release_without_acquire_parity_dc(self):
        # Error parity with the reference on the per-event path.
        trace = TraceBuilder().acq(1, "m").rel(1, "m").build()
        errors = []
        for det in (DCDetector(), EpochDCDetector()):
            det.begin_trace(trace)
            with pytest.raises(MalformedTraceError) as exc:
                det.handle(1)
            errors.append((str(exc.value), exc.value.event_index))
        assert errors[0] == errors[1]

    def test_streaming_release_without_acquire_parity_wcp(self):
        trace = TraceBuilder().acq(1, "m").rel(1, "m").build()
        errors = []
        for det in (WCPDetector(), EpochWCPDetector(), DCDetector()):
            det.begin_trace(trace)
            with pytest.raises(MalformedTraceError) as exc:
                det.handle(1)
            errors.append((str(exc.value), exc.value.event_index))
        assert errors[0] == errors[1] == errors[2]

    @SETTINGS
    @given(seed=seeds,
           config=st.builds(GeneratorConfig,
                            threads=st.integers(3, 5),
                            events=st.integers(10, 40),
                            variables=st.integers(1, 2),
                            locks=st.integers(1, 2),
                            use_fork_join=st.just(True)))
    def test_fork_join_interleavings(self, seed, config):
        trace = random_trace(seed, config)
        assert_equivalent(WCPDetector, EpochWCPDetector, trace)
        assert_equivalent(DCDetector, EpochDCDetector, trace, graphs=True)


class TestVindicatorBatch:
    """End-to-end: the default pipeline (epoch detectors) must produce
    the reference's ``analyze/1`` document bit-for-bit, timings aside —
    classification, distances, and vindication verdicts included, since
    those consume the DC graph and clocks the detectors produced."""

    @pytest.mark.parametrize("trace_factory", [figure1, figure3],
                             ids=["figure1", "figure3"])
    def test_documents_identical_on_litmus(self, trace_factory):
        trace = trace_factory()
        ref = blank_timings(Vindicator(vindicate_all=True,
                                       variant="reference")
                            .run(trace).to_document())
        fast = blank_timings(Vindicator(vindicate_all=True)
                             .run(trace).to_document())
        assert ref == fast

    def test_documents_identical_on_workload(self):
        trace = execute(WORKLOADS["xalan"](scale=0.4), seed=2)
        ref = blank_timings(Vindicator(sanitize=True, variant="reference")
                            .run(trace).to_document())
        fast = blank_timings(Vindicator(sanitize=True)
                             .run(trace).to_document())
        assert ref == fast

    def test_parallel_batch_matches_serial_reference(self):
        # Formerly the batch tier under the process pool; both are gone,
        # and the default path on the same trace stands in for them.
        trace = execute(WORKLOADS["avrora"](scale=0.4), seed=2)
        ref = blank_timings(Vindicator(variant="reference").run(trace)
                            .to_document())
        fast = blank_timings(Vindicator().run(trace).to_document())
        assert fast["parallel"] == {"jobs": 1}
        assert ref == fast
