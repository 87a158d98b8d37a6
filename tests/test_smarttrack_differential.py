"""Differential tests: epoch/ownership detectors vs the references.

:class:`~repro.analysis.smarttrack.EpochHBDetector`,
:class:`~repro.analysis.smarttrack.EpochWCPDetector` and
:class:`~repro.analysis.smarttrack.EpochDCDetector` are *optimisations*,
never semantic changes: for every trace they must report the same races
in the same order, the same per-access ``racing_at`` sets, the same
counters, and (for DC) the same constraint-graph edge set, program
order expanded, as
:class:`~repro.analysis.hb.HBDetector` /
:class:`~repro.analysis.wcp.WCPDetector` /
:class:`~repro.analysis.dc.DCDetector` — under every combination of the
``force_order`` / ``transitive_force`` flags.

Alongside hypothesis-generated traces, the adversarial cases target the
epoch state machine's edges specifically: shared-read inflation and the
write that re-arms the gate afterwards, gate consultation with forcing
disabled, deep lock nesting, fork/join interleavings, and malformed
streaming input (where the epoch detectors must fail with the *same*
exception type and message as the references — reentrant locks cannot
reach any detector: ``Trace`` construction rejects them).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.dc import DCDetector
from repro.analysis.hb import HBDetector
from repro.analysis.smarttrack import (EpochDCDetector, EpochHBDetector,
                                       EpochWCPDetector)
from repro.analysis.wcp import WCPDetector
from repro.core.exceptions import MalformedTraceError
from repro.core.trace import TraceBuilder
from repro.runtime import execute
from repro.runtime.workloads import WORKLOADS
from repro.traces.gen import GeneratorConfig, random_trace
from repro.traces.litmus import ALL as LITMUS

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

#: (force_order, transitive_force) — the HB and DC epoch gates are only
#: armed under (True, True) and must silently stand down otherwise.
FLAG_COMBOS = [(True, True), (True, False), (False, False)]
flag_combos = st.sampled_from(FLAG_COMBOS)


def assert_equivalent(ref, fast, trace, flags=(True, True), graphs=False):
    reports = []
    for det in (ref, fast):
        det.force_order, det.transitive_force = flags
        reports.append(det.analyze(trace))
    ref_report, fast_report = reports
    assert ([(r.first.eid, r.second.eid) for r in ref_report.races]
            == [(r.first.eid, r.second.eid) for r in fast_report.races])
    assert dict(ref.racing_at) == dict(fast.racing_at)
    assert ref_report.counters == fast_report.counters
    if graphs:
        assert sorted(ref.graph.edges()) == sorted(fast.graph.edges())
    return fast


class TestRandomTraces:
    @SETTINGS
    @given(seed=seeds, config=configs, flags=flag_combos)
    def test_hb_differential(self, seed, config, flags):
        trace = random_trace(seed, config)
        assert_equivalent(HBDetector(), EpochHBDetector(), trace, flags)

    @SETTINGS
    @given(seed=seeds, config=configs, flags=flag_combos)
    def test_wcp_differential(self, seed, config, flags):
        trace = random_trace(seed, config)
        assert_equivalent(WCPDetector(), EpochWCPDetector(), trace, flags)

    @SETTINGS
    @given(seed=seeds, config=configs, flags=flag_combos)
    def test_dc_differential_with_graph(self, seed, config, flags):
        trace = random_trace(seed, config)
        assert_equivalent(DCDetector(build_graph=True),
                          EpochDCDetector(build_graph=True),
                          trace, flags, graphs=True)

    @SETTINGS
    @given(seed=seeds, config=configs)
    def test_dc_differential_without_graph(self, seed, config):
        trace = random_trace(seed, config)
        assert_equivalent(DCDetector(build_graph=False),
                          EpochDCDetector(build_graph=False), trace)


class TestLitmusAndWorkloads:
    @pytest.mark.parametrize("name", sorted(LITMUS))
    @pytest.mark.parametrize("flags", FLAG_COMBOS,
                             ids=["force+trans", "force", "off"])
    def test_litmus(self, name, flags):
        trace = LITMUS[name]()
        assert_equivalent(HBDetector(), EpochHBDetector(), trace, flags)
        assert_equivalent(WCPDetector(), EpochWCPDetector(), trace, flags)
        assert_equivalent(DCDetector(), EpochDCDetector(), trace, flags,
                          graphs=True)

    @pytest.mark.parametrize("name", ["avrora", "xalan"])
    def test_workloads(self, name):
        trace = execute(WORKLOADS[name](scale=0.5), seed=3)
        assert_equivalent(WCPDetector(), EpochWCPDetector(), trace)
        fast = assert_equivalent(DCDetector(), EpochDCDetector(), trace,
                                 graphs=True)
        stats = fast.fast_stats()
        # The fast paths must actually engage on a realistic workload.
        assert stats["epoch_exclusive_hits"] > 0
        assert stats["snapshots_reused"] >= stats["snapshots_copied"]

    @pytest.mark.parametrize("flags", FLAG_COMBOS,
                             ids=["force+trans", "force", "off"])
    @pytest.mark.parametrize("name", ["avrora", "xalan", "h2"])
    def test_hb_workloads_scale_2(self, name, flags):
        trace = execute(WORKLOADS[name](scale=2), seed=0)
        fast = assert_equivalent(HBDetector(), EpochHBDetector(), trace,
                                 flags)
        stats = fast.fast_stats()
        if flags == (True, True):
            if name == "avrora":
                # The HB epoch gates must actually fire, not only stand
                # by: avrora's shared variables are mostly ordered.
                assert stats["epoch_write_gate_hits"] > 0
        else:
            assert stats["epoch_write_gate_hits"] == 0
            assert stats["epoch_read_gate_hits"] == 0


class TestAdversarial:
    def test_shared_read_inflation_then_write_rearms_gate(self):
        # t2/t3 read x concurrently after the forking write (the read
        # epoch inflates to shared); the joining write re-arms the write
        # gate; the trailing unordered read must still race-check
        # identically to the reference.
        trace = (TraceBuilder()
                 .wr(1, "x").fork(1, 2).fork(1, 3)
                 .rd(2, "x").rd(3, "x")
                 .join(1, 2).join(1, 3)
                 .wr(1, "x").fork(1, 4).rd(4, "x").wr(1, "x")
                 .build())
        fast = assert_equivalent(DCDetector(), EpochDCDetector(), trace,
                                 graphs=True)
        stats = fast.fast_stats()
        assert stats["epoch_promotions"] >= 1
        assert stats["epoch_read_inflations"] >= 1

    def test_demotion_never_happens_verdicts_still_match(self):
        # Once shared, a variable stays shared (demotion would have to
        # prove exclusivity again); a long exclusive tail after sharing
        # exercises the shared-stage bookkeeping path.
        builder = TraceBuilder().wr(1, "x").fork(1, 2).rd(2, "x").join(1, 2)
        for _ in range(10):
            builder.wr(1, "x").rd(1, "x")
        trace = builder.build()
        fast = assert_equivalent(DCDetector(), EpochDCDetector(), trace,
                                 graphs=True)
        assert fast.fast_stats()["epoch_write_gate_hits"] >= 1

    def test_gates_stand_down_without_transitive_force(self):
        # Identical verdicts under every flag combo — the write/read
        # gates are only sound when forcing propagates transitively, so
        # they must not fire otherwise.
        trace = (TraceBuilder()
                 .wr(1, "x").fork(1, 2).rd(2, "x").wr(2, "x")
                 .join(1, 2).rd(1, "x")
                 .build())
        for flags in FLAG_COMBOS:
            assert_equivalent(DCDetector(), EpochDCDetector(), trace,
                              flags, graphs=True)
            fast = EpochDCDetector()
            fast.force_order, fast.transitive_force = flags
            fast.analyze(trace)
            if flags != (True, True):
                stats = fast.fast_stats()
                assert stats["epoch_write_gate_hits"] == 0
                assert stats["epoch_read_gate_hits"] == 0

    def test_deep_nesting_and_lock_ownership_transfer(self):
        trace = (TraceBuilder()
                 .acq(1, "a").acq(1, "b").acq(1, "c")
                 .wr(1, "x").rel(1, "c").rel(1, "b").rel(1, "a")
                 .acq(2, "a").acq(2, "b").rd(2, "x")
                 .rel(2, "b").rel(2, "a")
                 .acq(1, "a").wr(1, "y").rel(1, "a")
                 .build())
        fast = assert_equivalent(DCDetector(), EpochDCDetector(), trace,
                                 graphs=True)
        stats = fast.fast_stats()
        # Lock "a" changed hands: its rule-(b) owner skip must be off.
        assert stats["ownership_lock_transfers"] >= 1
        assert_equivalent(WCPDetector(), EpochWCPDetector(), trace)

    def test_single_owner_lock_skips_rule_b(self):
        builder = TraceBuilder()
        for _ in range(4):
            builder.acq(1, "m").wr(1, "x").rel(1, "m")
        builder.fork(1, 2).rd(2, "y")
        trace = builder.build()
        fast = assert_equivalent(DCDetector(), EpochDCDetector(), trace,
                                 graphs=True)
        assert fast.fast_stats()["ownership_rule_b_skips"] >= 3

    def test_reentrant_locks_cannot_reach_detectors(self):
        with pytest.raises(MalformedTraceError, match="already held"):
            TraceBuilder().acq(1, "m").acq(1, "m").build()

    def test_streaming_release_without_acquire_parity_dc(self):
        trace = TraceBuilder().acq(1, "m").rel(1, "m").build()
        errors = []
        for det in (DCDetector(), EpochDCDetector()):
            det.begin_trace(trace)
            with pytest.raises(MalformedTraceError) as exc:
                det.handle(1)
            errors.append((str(exc.value), exc.value.event_index))
        assert errors[0] == errors[1]

    def test_streaming_release_by_wrong_thread_parity_dc(self):
        trace = (TraceBuilder()
                 .acq(1, "m").rel(1, "m")
                 .acq(2, "m").rel(2, "m")
                 .build())
        errors = []
        for det in (DCDetector(), EpochDCDetector()):
            det.begin_trace(trace)
            det.handle(0)
            with pytest.raises(MalformedTraceError) as exc:
                det.handle(3)
            errors.append((str(exc.value), exc.value.event_index))
        assert errors[0] == errors[1]

    def test_streaming_release_without_acquire_parity_hb(self):
        # HB has no rule (b) queues, so neither HB detector rejects an
        # unmatched release: both record the release clock and carry on,
        # and the acquire that follows joins it identically.
        trace = (TraceBuilder()
                 .acq(1, "m").wr(1, "x").rel(1, "m")
                 .acq(2, "m").rd(2, "x").rel(2, "m")
                 .build())
        outcomes = []
        for det in (HBDetector(), EpochHBDetector()):
            det.begin_trace(trace)
            det.handle(2)
            for event in trace.events[3:]:
                det.handle(event.eid)
            report = det.finish()
            outcomes.append(([(r.first.eid, r.second.eid)
                              for r in report.races],
                             dict(det.racing_at), dict(report.counters)))
        assert outcomes[0] == outcomes[1]

    def test_streaming_release_without_acquire_parity_wcp(self):
        # Both WCP detectors reject the release as the DC detectors do.
        trace = TraceBuilder().acq(1, "m").rel(1, "m").build()
        errors = []
        for det in (WCPDetector(), EpochWCPDetector(), DCDetector()):
            det.begin_trace(trace)
            with pytest.raises(MalformedTraceError) as exc:
                det.handle(1)
            errors.append((str(exc.value), exc.value.event_index))
        assert errors[0] == errors[1] == errors[2]

    def test_streaming_release_by_wrong_thread_parity_wcp(self):
        trace = (TraceBuilder()
                 .acq(1, "m").rel(1, "m")
                 .acq(2, "m").rel(2, "m")
                 .build())
        errors = []
        for det in (WCPDetector(), EpochWCPDetector(), DCDetector()):
            det.begin_trace(trace)
            det.handle(0)
            with pytest.raises(MalformedTraceError) as exc:
                det.handle(3)
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
        assert_equivalent(HBDetector(), EpochHBDetector(), trace)
        assert_equivalent(WCPDetector(), EpochWCPDetector(), trace)
        assert_equivalent(DCDetector(), EpochDCDetector(), trace,
                          graphs=True)
