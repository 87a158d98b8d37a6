"""Unit tests for the lockset / thread-locality pre-analysis."""

import pytest

from repro.analysis.races import DynamicRace
from repro.core.trace import TraceBuilder
from repro.static.lockset import (
    VariableVerdict,
    analyze_locksets,
    cross_check,
)
from repro.traces.litmus import ALL as LITMUS
from repro.vindicate.vindicator import Vindicator


class TestVerdicts:
    def test_thread_local(self):
        tr = TraceBuilder().wr(1, "x").rd(1, "x").wr(1, "x").build()
        res = analyze_locksets(tr.events)
        assert res.verdict_of("x") is VariableVerdict.THREAD_LOCAL
        assert res.variables["x"].reads == 1
        assert res.variables["x"].writes == 2

    def test_read_shared(self):
        tr = TraceBuilder().rd(1, "x").rd(2, "x").rd(3, "x").build()
        res = analyze_locksets(tr.events)
        assert res.verdict_of("x") is VariableVerdict.READ_SHARED

    def test_lock_protected(self):
        tr = (TraceBuilder()
              .acq(1, "m").wr(1, "x").rel(1, "m")
              .acq(2, "m").rd(2, "x").rel(2, "m")
              .build())
        res = analyze_locksets(tr.events)
        assert res.verdict_of("x") is VariableVerdict.LOCK_PROTECTED
        assert res.variables["x"].protected_by == frozenset(["m"])

    def test_lockset_is_the_intersection(self):
        tr = (TraceBuilder()
              .acq(1, "m").acq(1, "n").wr(1, "x").rel(1, "n").rel(1, "m")
              .acq(2, "n").rd(2, "x").rel(2, "n")
              .build())
        res = analyze_locksets(tr.events)
        assert res.variables["x"].protected_by == frozenset(["n"])
        assert res.verdict_of("x") is VariableVerdict.LOCK_PROTECTED

    def test_race_candidate_no_common_lock(self):
        tr = (TraceBuilder()
              .acq(1, "m").wr(1, "x").rel(1, "m")
              .acq(2, "n").wr(2, "x").rel(2, "n")
              .build())
        res = analyze_locksets(tr.events)
        assert res.verdict_of("x") is VariableVerdict.RACE_CANDIDATE

    def test_race_candidate_unprotected_write(self):
        tr = TraceBuilder().wr(1, "x").rd(2, "x").build()
        res = analyze_locksets(tr.events)
        assert res.verdict_of("x") is VariableVerdict.RACE_CANDIDATE

    def test_one_unprotected_access_spoils_the_lockset(self):
        tr = (TraceBuilder()
              .acq(1, "m").wr(1, "x").rel(1, "m")
              .rd(2, "x")
              .build())
        res = analyze_locksets(tr.events)
        assert res.verdict_of("x") is VariableVerdict.RACE_CANDIDATE

    def test_eraser_init_pattern_is_not_excused(self):
        # Classic Eraser would excuse an unsynchronised initialising
        # write followed by shared reads; predictively that write CAN
        # race with the reads, so it must stay a candidate.
        tr = (TraceBuilder()
              .wr(1, "x")
              .fork(1, 2)  # no ordering assumed by the *static* pass
              .rd(2, "x").rd(1, "x")
              .build())
        res = analyze_locksets(tr.events)
        assert res.verdict_of("x") is VariableVerdict.RACE_CANDIDATE

    def test_unseen_variable_defaults_thread_local(self):
        tr = TraceBuilder().wr(1, "x").build()
        assert analyze_locksets(tr.events).verdict_of("nope") is \
            VariableVerdict.THREAD_LOCAL

    def test_volatiles_are_not_variables(self):
        tr = TraceBuilder().vwr(1, "v").vrd(2, "v").build()
        assert "v" not in analyze_locksets(tr.events).variables

    def test_counts_and_summary(self):
        tr = (TraceBuilder()
              .wr(1, "a")
              .rd(1, "b").rd(2, "b")
              .wr(1, "c").wr(2, "c")
              .build())
        res = analyze_locksets(tr.events)
        counts = res.counts()
        assert counts[VariableVerdict.THREAD_LOCAL] == 1
        assert counts[VariableVerdict.READ_SHARED] == 1
        assert counts[VariableVerdict.RACE_CANDIDATE] == 1
        assert counts[VariableVerdict.LOCK_PROTECTED] == 0
        summary = res.summary()
        assert "3 variables" in summary
        assert "1 thread-local" in summary

    def test_race_candidates_set(self):
        tr = (TraceBuilder()
              .wr(1, "a")
              .wr(1, "x").wr(2, "x")
              .build())
        assert analyze_locksets(tr.events).race_candidates == \
            frozenset(["x"])


class TestSticky:
    def test_candidate_short_circuits_but_keeps_counting(self):
        b = TraceBuilder().wr(1, "x").wr(2, "x")
        for _ in range(10):
            b.rd(3, "x")
        res = analyze_locksets(b.build().events)
        info = res.variables["x"]
        assert info.verdict is VariableVerdict.RACE_CANDIDATE
        assert info.reads == 10
        assert info.writes == 2
        assert info.threads == frozenset([1, 2, 3])


class TestCrossCheck:
    @pytest.mark.parametrize("name", sorted(LITMUS))
    def test_litmus_races_are_candidates(self, name):
        trace = LITMUS[name]()
        res = analyze_locksets(trace.events)
        report = Vindicator(
            vindicate_all=True,
            transitive_force=not name.startswith("figure4")).run(trace)
        for analysis in (report.hb, report.wcp, report.dc):
            assert cross_check(analysis.races, res) == []

    def test_violation_is_reported(self):
        # Forge a "race" on a thread-local variable: the cross-check
        # must flag it.
        trace = (TraceBuilder()
                 .wr(1, "x").rd(1, "x")
                 .wr(1, "y").wr(2, "y")
                 .build())
        res = analyze_locksets(trace.events)
        report = Vindicator(vindicate_all=True).run(trace)
        assert report.dc.races, "setup: expected a race on y"
        forged = [DynamicRace(first=trace[0], second=trace[1],
                              relation=r.relation)
                  for r in report.dc.races[:1]]
        violations = cross_check(forged, res)
        assert len(violations) == 1
        assert "thread-local" in violations[0]
