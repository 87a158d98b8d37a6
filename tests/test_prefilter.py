"""Lockset race candidates as a lossless filter on detector output.

The static lockset pass marks the variables that may take part in a
race (``race_candidates``).  Filtering any detector's races down to
those variables must lose nothing: every race is on a candidate, so the
filtered report equals the full one, event-id by event-id.  The same
holds end to end: ``Vindicator(sanitize=True)`` cross-checks every
report against the candidates and must not change a race or a verdict.
"""

import pytest

from repro.analysis.dc import DCDetector
from repro.analysis.hb import HBDetector
from repro.analysis.smarttrack import (EpochDCDetector, EpochHBDetector,
                                       EpochWCPDetector)
from repro.analysis.wcp import WCPDetector
from repro.runtime import execute
from repro.runtime.workloads import WORKLOADS
from repro.static.lockset import analyze_locksets, cross_check
from repro.traces.litmus import ALL as LITMUS
from repro.vindicate.vindicator import Vindicator

DETECTORS = {
    "hb": HBDetector,
    "wcp": WCPDetector,
    "dc": lambda: DCDetector(build_graph=False),
    "hb_epoch": EpochHBDetector,
    "wcp_epoch": EpochWCPDetector,
    "dc_epoch": lambda: EpochDCDetector(build_graph=False),
}

WORKLOAD_CASES = [("luindex", 0, 0.2), ("xalan", 1, 0.3)]


def workload_trace(name, seed, scale):
    return execute(WORKLOADS[name](scale=scale), seed=seed)


def race_keys(races):
    return [(r.first.eid, r.second.eid, r.race_class) for r in races]


def run_pair(detector_factory, trace):
    """The detector's races, and the same races filtered to candidates."""
    report = detector_factory().analyze(trace)
    lockset = analyze_locksets(trace.events)
    candidates = lockset.race_candidates
    filtered = [r for r in report.races
                if r.first.target in candidates
                and r.second.target in candidates]
    assert cross_check(report.races, lockset) == []
    return report.races, filtered


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
        assert plain
        assert race_keys(plain) == race_keys(filtered)

    @pytest.mark.parametrize("case", WORKLOAD_CASES,
                             ids=[c[0] for c in WORKLOAD_CASES])
    def test_filter_actually_skips_work(self, case):
        # The static pass proves some accessed variables race-free and
        # keeps others, so the candidate set is a strict, non-empty subset.
        trace = workload_trace(*case)
        candidates = analyze_locksets(trace.events).race_candidates
        accesses = [e for e in trace.events if e.is_access]
        skipped = sum(1 for e in accesses if e.target not in candidates)
        assert skipped > 0
        assert len(accesses) - skipped > 0


class TestVindicatorEquality:
    @pytest.mark.parametrize("litmus_name", sorted(LITMUS))
    def test_litmus_full_pipeline(self, litmus_name):
        trace = LITMUS[litmus_name]()
        kwargs = dict(vindicate_all=True,
                      transitive_force=not litmus_name.startswith("figure4"))
        plain = Vindicator(**kwargs).run(trace)
        sanitized = Vindicator(sanitize=True, **kwargs).run(trace)
        for attr in ("hb", "wcp", "dc"):
            assert race_keys(getattr(plain, attr).races) == \
                race_keys(getattr(sanitized, attr).races), attr
        assert [(v.race.first.eid, v.race.second.eid, v.verdict)
                for v in plain.vindications] == \
               [(v.race.first.eid, v.race.second.eid, v.verdict)
                for v in sanitized.vindications]

    @pytest.mark.parametrize("case", WORKLOAD_CASES,
                             ids=[c[0] for c in WORKLOAD_CASES])
    def test_workload_full_pipeline(self, case):
        trace = workload_trace(*case)
        plain = Vindicator().run(trace)
        sanitized = Vindicator(sanitize=True).run(trace)
        for attr in ("hb", "wcp", "dc"):
            assert race_keys(getattr(plain, attr).races) == \
                race_keys(getattr(sanitized, attr).races), attr
        assert sanitized.lockset is not None
