"""End-to-end tests for VINDICATERACE and the Vindicator pipeline."""

import pytest

from repro.analysis.dc import DCDetector
from repro.analysis.races import RaceClass
from repro.vindicate.vindicator import Verdict, Vindicator, vindicate_race
from repro.vindicate.verify import check_witness
from repro.traces.litmus import (
    ALL,
    appendix_c_greedy,
    figure1,
    figure2,
    figure3,
    figure4a,
    figure4b,
    retry_case,
)


class TestVindicateRace:
    def test_true_race_confirmed_with_witness(self):
        trace = figure2()
        det = DCDetector()
        report = det.analyze(trace)
        result = vindicate_race(det.graph, trace, report.races[0])
        assert result.verdict is Verdict.RACE
        assert result.witness is not None
        check_witness(trace, result.witness, result.race.first,
                      result.race.second)

    def test_graph_restored_after_vindication(self):
        trace = figure2()
        det = DCDetector()
        report = det.analyze(trace)
        edges_before = set(det.graph.edges())
        vindicate_race(det.graph, trace, report.races[0])
        assert set(det.graph.edges()) == edges_before

    def test_graph_restored_even_on_refutation(self):
        trace = figure4b()
        det = DCDetector()
        det.transitive_force = False
        report = det.analyze(trace)
        edges_before = set(det.graph.edges())
        result = vindicate_race(det.graph, trace, report.races[-1])
        assert result.verdict is Verdict.NO_RACE
        assert set(det.graph.edges()) == edges_before

    def test_false_race_refuted_with_cycle(self):
        trace = figure4a()
        det = DCDetector()
        det.transitive_force = False
        report = det.analyze(trace)
        race = next(r for r in report.races
                    if (r.first.eid, r.second.eid) == (2, 7))
        result = vindicate_race(det.graph, trace, race)
        assert result.verdict is Verdict.NO_RACE
        assert result.cycle is not None
        assert result.witness is None

    def test_unknown_when_greedy_fails(self):
        trace = appendix_c_greedy()
        det = DCDetector()
        report = det.analyze(trace)
        race = next(r for r in report.races
                    if (r.first.eid, r.second.eid) == (6, 7))
        result = vindicate_race(det.graph, trace, race, policy="earliest")
        assert result.verdict is Verdict.UNKNOWN
        assert result.witness is None

    def test_same_race_vindicates_repeatedly(self):
        trace = figure2()
        det = DCDetector()
        report = det.analyze(trace)
        for _ in range(3):
            result = vindicate_race(det.graph, trace, report.races[0])
            assert result.verdict is Verdict.RACE

    def test_elapsed_time_recorded(self):
        trace = figure1()
        det = DCDetector()
        report = det.analyze(trace)
        result = vindicate_race(det.graph, trace, report.races[0])
        assert result.elapsed_seconds >= 0.0

    def test_retry_statistics(self):
        trace = retry_case()
        det = DCDetector()
        report = det.analyze(trace)
        race = next(r for r in report.races
                    if (r.first.eid, r.second.eid) == (2, 10))
        result = vindicate_race(det.graph, trace, race)
        assert result.verdict is Verdict.RACE
        assert result.attempts == 2


class TestVindicatorPipeline:
    def test_figure1_classification(self):
        report = Vindicator(vindicate_all=True).run(figure1())
        assert report.hb.dynamic_count == 0
        assert report.wcp.dynamic_count == 1
        assert report.dc.dynamic_count == 1
        assert report.dc.races[0].race_class is RaceClass.WCP_ONLY

    def test_figure2_dc_only_classification(self):
        report = Vindicator().run(figure2())
        assert report.dc_only_races
        assert report.dc.races[0].race_class is RaceClass.DC_ONLY

    def test_default_vindicates_only_dc_only_races(self):
        report = Vindicator().run(figure1())
        # Figure 1's race is WCP-only; nothing to vindicate by default.
        assert report.vindications == []

    def test_vindicate_all_covers_every_race(self):
        report = Vindicator(vindicate_all=True).run(figure1())
        assert len(report.vindications) == 1

    def test_confirmed_races_accessor(self):
        report = Vindicator(vindicate_all=True).run(figure2())
        assert len(report.confirmed_races) == 1

    def test_timings_populated(self):
        report = Vindicator(vindicate_all=True).run(figure2())
        assert report.analysis_seconds > 0.0
        assert report.vindication_seconds >= 0.0

    def test_summary_mentions_counts(self):
        report = Vindicator(vindicate_all=True).run(figure2())
        text = report.summary()
        assert "DC-only dynamic races: 1" in text
        assert "predictable race" in text

    def test_race_free_trace(self):
        from repro.core.trace import TraceBuilder
        trace = (TraceBuilder()
                 .acq(1, "m").wr(1, "x").rel(1, "m")
                 .acq(2, "m").rd(2, "x").rel(2, "m")
                 .build())
        report = Vindicator(vindicate_all=True).run(trace)
        assert report.dc.dynamic_count == 0
        assert report.vindications == []

    @pytest.mark.parametrize("name", sorted(ALL))
    def test_litmus_traces_never_crash(self, name):
        report = Vindicator(vindicate_all=True).run(ALL[name]())
        for v in report.vindications:
            assert v.verdict in (Verdict.RACE, Verdict.NO_RACE, Verdict.UNKNOWN)

    def test_unknown_policy_rejected_at_construction(self):
        # Before any analysis runs, not at the first race to vindicate.
        with pytest.raises(ValueError, match="unknown policy"):
            Vindicator(policy="bogus")

    def test_subset_property_on_reports(self):
        for name in ALL:
            report = Vindicator(vindicate_all=True).run(ALL[name]())
            assert report.hb.dynamic_count <= report.wcp.dynamic_count
            assert report.wcp.dynamic_count <= report.dc.dynamic_count


class TestHeadlineClaim:
    """The paper's bolded claim: VINDICATERACE confirms that every
    DC-only race (under default transitive forcing) is a true
    predictable race."""

    def test_figure3_dc_only_race_vindicated(self):
        report = Vindicator().run(figure3())
        assert len(report.vindications) == 1
        v = report.vindications[0]
        assert v.race.race_class is RaceClass.DC_ONLY
        assert v.verdict is Verdict.RACE
        assert v.ls_constraints >= 1

    def test_all_litmus_dc_only_races_true(self):
        for name, factory in ALL.items():
            report = Vindicator().run(factory())
            for v in report.vindications:
                assert v.verdict is Verdict.RACE, (name, v)
