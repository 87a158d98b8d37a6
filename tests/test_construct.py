"""Tests for CONSTRUCTREORDEREDTRACE / ATTEMPTTOCONSTRUCTTRACE."""

import pytest

from repro.analysis.dc import DCDetector
from repro.vindicate.add_constraints import add_constraints
from repro.vindicate.construct import construct_reordered_trace
from repro.vindicate.verify import check_witness
from repro.traces.litmus import appendix_c_greedy, figure1, figure2, retry_case


def prepared(trace, race_index=-1):
    det = DCDetector()
    report = det.analyze(trace)
    race = report.races[race_index]
    result = add_constraints(det.graph, trace, race.first, race.second)
    assert not result.refuted
    return det.graph, race


class TestConstruction:
    def test_figure1_witness(self):
        trace = figure1()
        graph, race = prepared(trace)
        witness, stats = construct_reordered_trace(
            graph, trace, race.first, race.second)
        assert witness is not None
        check_witness(trace, witness, race.first, race.second)
        assert stats.attempts == 1

    def test_figure2_witness_flips_critical_sections(self):
        trace = figure2()
        graph, race = prepared(trace)
        witness, _ = construct_reordered_trace(
            graph, trace, race.first, race.second)
        assert witness is not None
        check_witness(trace, witness, race.first, race.second)
        order = [e.eid for e in witness.events()]
        # Thread 3's critical section on m (events 9/10) runs, while
        # thread 2's (events 7/8) is omitted entirely: the critical
        # sections effectively run in the opposite order, which WCP's
        # composition with synchronisation order can never allow.
        assert order.index(9) < order.index(11)
        assert 7 not in order and 8 not in order

    def test_witness_ends_with_racing_pair(self):
        trace = figure2()
        graph, race = prepared(trace)
        witness, _ = construct_reordered_trace(
            graph, trace, race.first, race.second)
        assert witness is not None
        assert witness.events()[-2].eid == race.first.eid
        assert witness.events()[-1].eid == race.second.eid

    def test_retry_pulls_in_missing_release(self):
        trace = retry_case()
        graph, race = prepared(trace)
        assert (race.first.eid, race.second.eid) == (2, 10)
        witness, stats = construct_reordered_trace(
            graph, trace, race.first, race.second)
        assert witness is not None
        check_witness(trace, witness, race.first, race.second)
        assert stats.attempts == 2
        assert stats.extra_releases == 1

    def test_placed_events_counted(self):
        trace = figure1()
        graph, race = prepared(trace)
        witness, stats = construct_reordered_trace(
            graph, trace, race.first, race.second)
        assert stats.placed_events == len(witness)


class TestPolicies:
    def test_unknown_policy_rejected(self):
        trace = figure1()
        graph, race = prepared(trace)
        with pytest.raises(ValueError, match="unknown policy"):
            construct_reordered_trace(graph, trace, race.first, race.second,
                                      policy="bogus")

    def test_latest_succeeds_where_earliest_fails(self):
        trace = appendix_c_greedy()
        det = DCDetector()
        report = det.analyze(trace)
        race = next(r for r in report.races
                    if (r.first.eid, r.second.eid) == (6, 7))
        result = add_constraints(det.graph, trace, race.first, race.second)
        assert not result.refuted
        latest, _ = construct_reordered_trace(
            det.graph, trace, race.first, race.second, policy="latest")
        assert latest is not None
        earliest, _ = construct_reordered_trace(
            det.graph, trace, race.first, race.second, policy="earliest")
        assert earliest is None

    def test_random_policy_is_seed_deterministic(self):
        trace = figure2()
        graph, race = prepared(trace)
        w1, _ = construct_reordered_trace(graph, trace, race.first,
                                          race.second, policy="random", seed=5)
        w2, _ = construct_reordered_trace(graph, trace, race.first,
                                          race.second, policy="random", seed=5)
        assert ([e.eid for e in w1.events()] if w1 else None) == \
            ([e.eid for e in w2.events()] if w2 else None)

    def test_every_successful_policy_yields_correct_witness(self):
        trace = figure2()
        graph, race = prepared(trace)
        for policy in ("latest", "earliest", "random"):
            witness, _ = construct_reordered_trace(
                graph, trace, race.first, race.second, policy=policy)
            if witness is not None:
                check_witness(trace, witness, race.first, race.second)
