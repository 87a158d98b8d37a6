"""Verdict-preservation tests for the lockset pre-filter.

The pre-filter may only skip *race checks* on variables the static pass
proves race-free; it must never change which races any detector finds,
their classification, or vindication verdicts.  These tests compare
full runs with the filter on vs. off, event-id by event-id.
"""

import pytest

from repro.analysis.dc import DCDetector
from repro.analysis.fasttrack import FastTrackDetector
from repro.analysis.hb import HBDetector
from repro.analysis.smarttrack import EpochDCDetector, EpochWCPDetector
from repro.analysis.wcp import WCPDetector
from repro.runtime import execute
from repro.runtime.workloads import WORKLOADS
from repro.static.lockset import analyze_locksets
from repro.traces.litmus import ALL as LITMUS
from repro.vindicate.vindicator import Vindicator

DETECTORS = {
    "hb": HBDetector,
    "fasttrack": FastTrackDetector,
    "wcp": WCPDetector,
    "dc": lambda prefilter=None: DCDetector(build_graph=False,
                                            prefilter=prefilter),
    "wcp_epoch": EpochWCPDetector,
    "dc_epoch": lambda prefilter=None: EpochDCDetector(build_graph=False,
                                                       prefilter=prefilter),
}

WORKLOAD_CASES = [("luindex", 0, 0.2), ("xalan", 1, 0.3)]


def workload_trace(name, seed, scale):
    return execute(WORKLOADS[name](scale=scale), seed=seed)


def race_keys(report):
    return [(r.first.eid, r.second.eid, r.race_class) for r in report.races]


def run_pair(detector_factory, trace):
    plain = detector_factory().analyze(trace)
    candidates = analyze_locksets(trace.events).race_candidates
    filtered = detector_factory(prefilter=candidates).analyze(trace)
    return plain, filtered


class TestDetectorEquality:
    @pytest.mark.parametrize("det_name", sorted(DETECTORS))
    @pytest.mark.parametrize("litmus_name", sorted(LITMUS))
    def test_litmus(self, det_name, litmus_name):
        trace = LITMUS[litmus_name]()
        plain, filtered = run_pair(DETECTORS[det_name], trace)
        assert race_keys(plain) == race_keys(filtered)

    @pytest.mark.parametrize("det_name", sorted(DETECTORS))
    @pytest.mark.parametrize("case", WORKLOAD_CASES,
                             ids=[c[0] for c in WORKLOAD_CASES])
    def test_workloads(self, det_name, case):
        trace = workload_trace(*case)
        plain, filtered = run_pair(DETECTORS[det_name], trace)
        assert race_keys(plain) == race_keys(filtered)

    @pytest.mark.parametrize("case", WORKLOAD_CASES,
                             ids=[c[0] for c in WORKLOAD_CASES])
    def test_filter_actually_skips_work(self, case):
        trace = workload_trace(*case)
        candidates = analyze_locksets(trace.events).race_candidates
        report = HBDetector(prefilter=candidates).analyze(trace)
        assert report.counters["lockset_skipped"] > 0
        assert report.counters["lockset_checked"] > 0


class TestVindicatorEquality:
    @pytest.mark.parametrize("litmus_name", sorted(LITMUS))
    def test_litmus_full_pipeline(self, litmus_name):
        trace = LITMUS[litmus_name]()
        kwargs = dict(vindicate_all=True,
                      transitive_force=not litmus_name.startswith("figure4"))
        plain = Vindicator(**kwargs).run(trace)
        filtered = Vindicator(prefilter=True, sanitize=True,
                              **kwargs).run(trace)
        for attr in ("hb", "wcp", "dc"):
            assert race_keys(getattr(plain, attr)) == \
                race_keys(getattr(filtered, attr)), attr
        assert [(v.race.first.eid, v.race.second.eid, v.verdict)
                for v in plain.vindications] == \
               [(v.race.first.eid, v.race.second.eid, v.verdict)
                for v in filtered.vindications]

    @pytest.mark.parametrize("case", WORKLOAD_CASES,
                             ids=[c[0] for c in WORKLOAD_CASES])
    def test_workload_full_pipeline(self, case):
        trace = workload_trace(*case)
        plain = Vindicator().run(trace)
        filtered = Vindicator(prefilter=True, sanitize=True).run(trace)
        for attr in ("hb", "wcp", "dc"):
            assert race_keys(getattr(plain, attr)) == \
                race_keys(getattr(filtered, attr)), attr
        assert filtered.lockset is not None
