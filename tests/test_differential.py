"""Differential tests: the linear-time online detectors must compute the
exact relations that the fixpoint reference engines define.

For each random trace, each detector runs with race forcing disabled and
its per-event clock snapshots are compared, ordering by ordering, against
the reference matrix.
"""

import pytest

from repro.analysis.dc import DCDetector
from repro.analysis.hb import HBDetector
from repro.analysis.reference import ReferenceAnalysis
from repro.analysis.wcp import WCPDetector
from repro.static.lockset import analyze_locksets, cross_check
from repro.traces.gen import GeneratorConfig, random_trace

CONFIGS = {
    "basic": GeneratorConfig(threads=3, events=24, locks=2, variables=3),
    "nested": GeneratorConfig(threads=3, events=28, locks=3, variables=2,
                              max_nesting=2),
    "two_threads": GeneratorConfig(threads=2, events=26, locks=2,
                                   variables=2, max_nesting=2),
    "forks": GeneratorConfig(threads=3, events=24, locks=2, variables=2,
                             use_fork_join=True),
    "volatiles": GeneratorConfig(threads=3, events=24, locks=2, variables=2,
                                 volatiles=2),
    "everything": GeneratorConfig(threads=4, events=32, locks=3, variables=3,
                                  volatiles=1, use_fork_join=True,
                                  max_nesting=2),
}


def clock_snapshots(detector, trace):
    detector.force_order = False
    detector.begin_trace(trace)
    snaps = []
    for e in trace:
        detector.handle(e.eid)
        snaps.append(detector.clock_of(e.tid).copy())
    return snaps


def assert_orderings_match(trace, snapshots, matrix, relation):
    local_time = trace.local_time
    for j, ej in enumerate(trace):
        snap = snapshots[j]
        for i in range(j):
            ei = trace[i]
            if ei.tid == ej.tid:
                continue
            online = snap.get(ei.tid) >= local_time[i]
            expected = bool(matrix[i, j])
            assert online == expected, (
                f"{relation}: {ei} -> {ej}: online={online}, "
                f"reference={expected}")


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("seed", range(12))
class TestOnlineMatchesReference:
    def test_hb(self, config_name, seed):
        trace = random_trace(seed, CONFIGS[config_name])
        ref = ReferenceAnalysis(trace)
        snaps = clock_snapshots(HBDetector(), trace)
        assert_orderings_match(trace, snaps, ref.hb, "HB")

    def test_wcp(self, config_name, seed):
        trace = random_trace(seed, CONFIGS[config_name])
        ref = ReferenceAnalysis(trace)
        snaps = clock_snapshots(WCPDetector(), trace)
        assert_orderings_match(trace, snaps, ref.wcp, "WCP")

    def test_dc(self, config_name, seed):
        trace = random_trace(seed, CONFIGS[config_name])
        ref = ReferenceAnalysis(trace)
        snaps = clock_snapshots(DCDetector(build_graph=False), trace)
        assert_orderings_match(trace, snaps, ref.dc, "DC")


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("seed", range(12))
class TestRacesAreLocksetCandidates:
    """Structural cross-check (the ``--sanitize`` invariant): every race a
    detector reports must be on a variable the lockset pre-analysis left
    as a race candidate.  The static pass over-approximates the dynamic
    detectors, so a violation here means a detector bug (or a filter
    soundness bug), not a flaky trace."""

    def _check(self, detector, trace):
        report = detector.analyze(trace)
        lockset = analyze_locksets(trace.events)
        assert cross_check(report.races, lockset) == []

    def test_hb(self, config_name, seed):
        self._check(HBDetector(), random_trace(seed, CONFIGS[config_name]))

    def test_wcp(self, config_name, seed):
        self._check(WCPDetector(), random_trace(seed, CONFIGS[config_name]))

    def test_dc(self, config_name, seed):
        self._check(DCDetector(build_graph=False),
                    random_trace(seed, CONFIGS[config_name]))


@pytest.mark.parametrize("seed", range(8))
def test_graph_closure_equals_dc_relation(seed):
    """With the graph enabled and forcing off, graph reachability must be
    exactly the reference DC relation."""
    trace = random_trace(seed, CONFIGS["nested"])
    ref = ReferenceAnalysis(trace)
    det = DCDetector(build_graph=True)
    det.force_order = False
    det.analyze(trace)
    for i in range(len(trace)):
        descendants = det.graph.descendants([i])
        for j in range(i + 1, len(trace)):
            graph_ordered = j in descendants
            if trace[i].tid == trace[j].tid:
                assert graph_ordered  # PO chain
            else:
                assert graph_ordered == bool(ref.dc[i, j]), (i, j)
