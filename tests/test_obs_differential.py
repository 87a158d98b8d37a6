"""Differential guarantee: observability never changes what is detected.

Instrumentation is observation only — with metrics on, every analysis
must report the bit-identical race set, classification, and vindication
verdict that it reports with metrics off. Violations would mean an
instrument call leaked into control flow (e.g. an extra RNG draw in the
scheduler, or a counter guard skipping work).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.runtime import execute, fast_path_filter
from repro.runtime.workloads import WORKLOADS
from repro.traces.gen import GeneratorConfig, random_trace
from repro.traces.litmus import ALL as LITMUS
from repro.vindicate.vindicator import Vindicator


def _signature(report):
    """Everything detection-relevant in a report, hashable-stable."""
    return {
        "races": {
            label: [(r.first.eid, r.second.eid, str(r.race_class))
                    for r in analysis.races]
            for label, analysis in (("hb", report.hb), ("wcp", report.wcp),
                                    ("dc", report.dc))
        },
        "counters": {
            label: analysis.counters
            for label, analysis in (("hb", report.hb), ("wcp", report.wcp),
                                    ("dc", report.dc))
        },
        "verdicts": [(v.race.first.eid, v.race.second.eid, v.verdict.value,
                      v.ls_constraints, v.attempts)
                     for v in report.vindications],
        "witnesses": [None if v.witness is None
                      else [e.eid for e in v.witness.events()]
                      for v in report.vindications],
    }


def _run(trace, **kwargs):
    return _signature(Vindicator(vindicate_all=True, **kwargs).run(trace))


def _differ(trace, **kwargs):
    off = _run(trace, **kwargs)
    try:
        obs.enable()
        on = _run(trace, **kwargs)
    finally:
        obs.disable()
    assert on == off
    return off


@pytest.mark.parametrize("name", sorted(LITMUS))
def test_litmus_identical_with_metrics_on(name):
    _differ(LITMUS[name]())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workloads_identical_with_metrics_on(name):
    # The scheduler draws from a seeded RNG; instrumentation must not
    # perturb the draw sequence, so the *traces* must match first.
    def trace_once():
        trace = execute(WORKLOADS[name](scale=0.3), seed=11)
        filtered, _ = fast_path_filter(trace)
        return filtered

    off_trace = trace_once()
    try:
        obs.enable()
        on_trace = trace_once()
    finally:
        obs.disable()
    assert [(e.tid, e.kind, e.target) for e in on_trace] == \
           [(e.tid, e.kind, e.target) for e in off_trace]
    _differ(off_trace)


def test_prefilter_and_sanitize_identical_with_metrics_on():
    trace = execute(WORKLOADS["xalan"](scale=0.5), seed=3)
    _differ(trace, prefilter=True, sanitize=True)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000),
       config=st.builds(GeneratorConfig,
                        threads=st.integers(2, 4),
                        events=st.integers(8, 30),
                        variables=st.integers(1, 3),
                        locks=st.integers(1, 2),
                        use_fork_join=st.booleans()))
def test_random_traces_identical_with_metrics_on(seed, config):
    assert not obs.enabled()  # hypothesis reuses the process; stay clean
    _differ(random_trace(seed, config))
