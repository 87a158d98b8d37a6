"""The litmus traces must have exactly the properties the paper (or this
reproduction's DESIGN notes) ascribes to them — validated against the
analyses, VindicateRace, and the brute-force oracle."""

import pytest

from repro.analysis.races import RaceClass
from repro.core.trace import TraceBuilder
from repro.core.witness import CutWitness
from repro.vindicate.oracle import PredictabilityOracle
from repro.vindicate.verify import check_witness
from repro.vindicate.vindicator import Verdict, Vindicator
from repro.traces import litmus


def run(trace, transitive_force=True):
    return Vindicator(vindicate_all=True,
                      transitive_force=transitive_force).run(trace)


class TestFigure1:
    def test_hb_misses_wcp_finds(self):
        report = run(litmus.figure1())
        assert report.hb.dynamic_count == 0
        assert report.wcp.dynamic_count == 1
        assert report.dc.dynamic_count == 1

    def test_pair_and_predictability(self):
        trace = litmus.figure1()
        assert PredictabilityOracle(trace).predictable_pairs() == {(0, 7)}
        report = run(trace)
        assert report.vindications[0].verdict is Verdict.RACE


class TestFigure2:
    def test_wcp_misses_dc_finds(self):
        report = run(litmus.figure2())
        assert report.wcp.dynamic_count == 0
        assert report.dc.dynamic_count == 1
        assert report.dc.races[0].race_class is RaceClass.DC_ONLY

    def test_oracle_confirms(self):
        trace = litmus.figure2()
        assert PredictabilityOracle(trace).predictable_pairs() == {(0, 11)}

    def test_vindication_needs_no_ls_constraints(self):
        report = run(litmus.figure2())
        v = report.vindications[0]
        assert v.verdict is Verdict.RACE
        assert v.consecutive_edges == 1
        assert v.ls_constraints == 0


class TestFigure3:
    def test_dc_only_with_ls_constraint(self):
        report = run(litmus.figure3())
        dc_only = [v for v in report.vindications
                   if v.race.race_class is RaceClass.DC_ONLY]
        assert len(dc_only) == 1
        v = dc_only[0]
        assert (v.race.first.eid, v.race.second.eid) == (3, 8)
        assert v.verdict is Verdict.RACE
        assert v.ls_constraints >= 1

    def test_oracle_confirms_both_races(self):
        trace = litmus.figure3()
        pairs = PredictabilityOracle(trace).predictable_pairs()
        assert (3, 8) in pairs and (3, 4) in pairs


class TestRetryCase:
    def test_needs_missing_release_retry(self):
        report = run(litmus.retry_case())
        dc_only = [v for v in report.vindications
                   if v.race.race_class is RaceClass.DC_ONLY]
        assert len(dc_only) == 1
        assert dc_only[0].verdict is Verdict.RACE
        assert dc_only[0].attempts == 2

    def test_oracle_confirms(self):
        trace = litmus.retry_case()
        assert PredictabilityOracle(trace).is_predictable(trace[2], trace[10])


@pytest.mark.parametrize("factory,pair", [
    (litmus.figure4a, (2, 7)),
    (litmus.figure4b, (0, 4)),
])
class TestFalseRaces:
    def test_refuted_and_oracle_agrees(self, factory, pair):
        trace = factory()
        report = run(trace, transitive_force=False)
        refuted = [v for v in report.vindications
                   if (v.race.first.eid, v.race.second.eid) == pair]
        assert len(refuted) == 1
        assert refuted[0].verdict is Verdict.NO_RACE
        assert not PredictabilityOracle(trace).is_predictable(
            trace[pair[0]], trace[pair[1]])

    def test_suppressed_under_transitive_forcing(self, factory, pair):
        report = run(factory())
        pairs = [(v.race.first.eid, v.race.second.eid)
                 for v in report.vindications]
        assert pair not in pairs
        # And everything that *is* reported is a true race.
        assert all(v.verdict is Verdict.RACE for v in report.vindications)


class TestAppendixCGreedy:
    def test_latest_policy_succeeds(self):
        report = run(litmus.appendix_c_greedy())
        assert all(v.verdict is Verdict.RACE for v in report.vindications)

    def test_earliest_policy_hits_dont_know(self):
        report = Vindicator(vindicate_all=True,
                            policy="earliest").run(litmus.appendix_c_greedy())
        verdicts = {(v.race.first.eid, v.race.second.eid): v.verdict
                    for v in report.vindications}
        assert verdicts[(6, 7)] is Verdict.UNKNOWN

    def test_the_race_is_nonetheless_real(self):
        trace = litmus.appendix_c_greedy()
        assert PredictabilityOracle(trace).is_predictable(trace[6], trace[7])


class TestCatalogue:
    def test_all_names_resolve(self):
        for name, factory in litmus.ALL.items():
            trace = factory()
            assert len(trace) > 0, name

    def test_factories_return_fresh_traces(self):
        assert litmus.figure1() is not litmus.figure1()


class TestWCPDeadlock:
    """The hand-crafted WCP-race-that-is-a-deadlock execution."""

    def test_wcp_flags_but_vindicator_refutes(self):
        trace = litmus.wcp_deadlock()
        report = run(trace)
        assert report.hb.dynamic_count == 0
        assert report.wcp.dynamic_count == 1
        assert report.dc.dynamic_count == 1
        assert report.vindications[0].verdict is Verdict.NO_RACE
        # The refutation uses pure LS constraints (no earlier races).
        assert report.vindications[0].ls_constraints >= 1

    def test_oracle_sees_deadlock_not_race(self):
        trace = litmus.wcp_deadlock()
        oracle = PredictabilityOracle(trace)
        assert not oracle.has_predictable_race()
        assert oracle.has_predictable_deadlock()


class TestAppendixCIncomplete:
    """latest fails on a true race; other orders succeed (Appendix C)."""

    def test_latest_is_inconclusive(self):
        trace = litmus.appendix_c_incomplete()
        report = run(trace)
        verdicts = {(v.race.first.eid, v.race.second.eid): v.verdict
                    for v in report.vindications}
        assert verdicts[(10, 11)] is Verdict.UNKNOWN

    def test_earliest_finds_the_witness(self):
        trace = litmus.appendix_c_incomplete()
        report = Vindicator(vindicate_all=True, policy="earliest").run(trace)
        verdicts = {(v.race.first.eid, v.race.second.eid): v.verdict
                    for v in report.vindications}
        assert verdicts[(10, 11)] is Verdict.RACE

    def test_oracle_confirms_race_is_real(self):
        trace = litmus.appendix_c_incomplete()
        assert PredictabilityOracle(trace).is_predictable(trace[10], trace[11])


def late_child():
    """A trace whose thread indices differ from its first-event order.

    T1 forks T2, T3 and T4, so ``tid_names`` is ``[1, 2, 3, 4]``; T3
    runs before T2, so ``threads`` is ``[1, 3, 2]``; T4 is forked and
    joined but never runs. Its races: the figure-2 shape between T3's
    ``wr(x)`` (event 3) and T1's ``rd(x)`` (event 16), whose witness
    holds none of T3's events; HB-races, the last (events 28 and 30)
    after T1 joined T2 and inside T1's section on ``n``, which T2 took
    before; and, without transitive forcing, the figure-4(b) false race
    between events 18 and 22."""
    return (TraceBuilder()
            .fork(1, 2)
            .fork(1, 3)
            .fork(1, 4)     # T4 never runs
            .wr(3, "x")     # 3: T3, interned after T2, runs first
            .acq(3, "o")
            .wr(3, "y")
            .rel(3, "o")
            .acq(2, "o")
            .rd(2, "y")
            .rel(2, "o")
            .acq(2, "m")
            .rel(2, "m")
            .wr(2, "w")
            .join(1, 4)
            .acq(1, "m")
            .rel(1, "m")
            .rd(1, "x")     # 16
            .wr(3, "w")
            .wr(3, "z")     # 18
            .rd(2, "z")
            .rd(2, "v")
            .wr(1, "v")
            .rd(1, "z")     # 22
            .acq(2, "n")
            .rel(2, "n")
            .wr(2, "u")
            .join(1, 2)
            .acq(1, "n")
            .wr(1, "q")     # 28
            .rel(1, "n")
            .rd(3, "q")     # 30
            .join(1, 3)
            .build())


class TestInterningOrder:
    """Cuts are indexed by thread index, not by first-event order."""

    def test_orders_differ(self):
        trace = late_child()
        assert trace.tid_names == [1, 2, 3, 4]
        assert trace.threads == [1, 3, 2]
        assert trace.thread_eids[3] == []

    @pytest.mark.parametrize("transitive_force", [True, False])
    def test_verdicts_equal_the_oracle(self, transitive_force):
        trace = late_child()
        oracle = PredictabilityOracle(trace)
        report = run(trace, transitive_force)
        verdicts = {}
        for v in report.vindications:
            first, second = v.race.first, v.race.second
            predictable = oracle.is_predictable(first, second)
            assert v.verdict is (Verdict.RACE if predictable
                                 else Verdict.NO_RACE), (first, second)
            if v.witness is not None:
                assert isinstance(v.witness, CutWitness)
                assert len(v.witness.cut) == 4 and v.witness.cut[3] == 0
                check_witness(trace, v.witness, first, second)
            verdicts[(first.eid, second.eid)] = v.verdict
        assert verdicts[(3, 16)] is Verdict.RACE
        if not transitive_force:
            assert verdicts[(18, 22)] is Verdict.NO_RACE
