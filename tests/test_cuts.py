"""Tests for the per-thread cut index (:mod:`repro.graph.cuts`).

* **Differential.** On random DC graphs, with extra edges in both
  directions (so cycles and strictness come up), every ``ancestors`` /
  ``descendants`` / ``reaches`` answer of :class:`CutIndex` must equal
  :class:`ConstraintGraph`'s BFS, through scripts of the VindicateRace
  bracket modelled on ``test_reachability_overlay.py``: races that add
  edges and remove them again, removals of edges the tables were built
  with (a rebuild), and journal overflow (a rebuild).
* **The cut lemma's precondition.** The DC graphs of the reference and
  epoch detectors and of a serve session contain every program-order
  edge (``test_graph_backward.py`` checks the other one: the pristine
  graph points forward only). A graph without PO is refused.
* **Counters and spans.** A pipeline run never rebuilds its tables,
  builds them in one ``vindicate.cut_index`` span, and a run with
  nothing to vindicate never builds them.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.analysis.dc import DCDetector
from repro.analysis.variants import make_analysis_detector
from repro.core.events import EventKind
from repro.graph.constraint_graph import ConstraintGraph
from repro.graph.cuts import CutIndex
from repro.runtime import execute
from repro.runtime.workloads import WORKLOADS
from repro.serve.session import SessionAnalyzer, SessionConfig
from repro.traces.gen import GeneratorConfig, random_trace
from repro.traces.litmus import figure2
from repro.vindicate.vindicator import Vindicator
from test_graph_backward import CORPUS, IDS
from test_litmus import late_child

_pick = st.integers(0, 10_000)
_op = st.one_of(
    st.tuples(st.just("add"), _pick, _pick),
    st.tuples(st.just("remove"), _pick, _pick),
    st.tuples(st.just("query"), _pick, _pick),
    st.tuples(st.just("open")),
    st.tuples(st.just("close")),
    st.tuples(st.just("rebuild"), _pick),
)


def program_order(trace):
    """The program-order edges of ``trace``."""
    for tid in trace.threads:
        eids = trace.eids_of(tid)
        yield from zip(eids, eids[1:])


def dc_graph(seed):
    config = GeneratorConfig(threads=3, events=18, locks=2, variables=2,
                             use_fork_join=seed % 3 == 0)
    trace = random_trace(seed, config)
    detector = DCDetector()
    detector.transitive_force = bool(seed % 2)
    detector.analyze(trace)
    return trace, detector.graph


def assert_agrees(index, graph, a, b):
    """Every query form of ``index`` equals the graph's BFS."""
    assert index.reaches(a, b) == graph.reaches(a, b)
    assert index.reaches(b, a) == graph.reaches(b, a)
    for roots in ([a], [a, b]):
        for include in (False, True):
            assert (index.descendants(roots, include)
                    == graph.descendants(roots, include))
            assert (index.ancestors(roots, include)
                    == graph.ancestors(roots, include))


def assert_sweep(index, graph):
    n = graph.num_events
    for a in range(n):
        assert_agrees(index, graph, a, (a * 5 + 3) % n)


def run_script(ops, seed, journal_limit, extra):
    rng = random.Random(seed)
    trace, graph = dc_graph(seed)
    graph._JOURNAL_LIMIT = journal_limit
    n = len(trace)
    po = set(program_order(trace))
    for _ in range(extra):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            graph.add_edge(a, b)
    index = CutIndex(graph, trace)
    race = None
    for op in ops:
        kind = op[0]
        if kind == "add":
            a, b = op[1] % n, op[2] % n
            if a != b and graph.add_edge(a, b) and race is not None:
                race.append((a, b))
        elif kind == "remove":
            # Edges the race added; outside a race, any non-PO edge.
            edges = race if race is not None else sorted(
                set(graph.edges()) - po)
            if edges:
                edge = edges[op[1] % len(edges)]
                graph.remove_edge(*edge)
                if race is not None:
                    race.remove(edge)
        elif kind == "query":
            assert_agrees(index, graph, op[1] % n, op[2] % n)
        elif kind == "open":
            if race is None:
                index.sync()
                race = []
        elif kind == "close":
            if race is not None:
                for edge in reversed(race):
                    graph.remove_edge(*edge)
                race = None
        else:
            # Remove an edge the tables may have been built with, query,
            # and put it back: two rebuilds at most.
            edges = sorted(set(graph.edges()) - po)
            if edges:
                edge = edges[op[1] % len(edges)]
                graph.remove_edge(*edge)
                assert_agrees(index, graph, *edge)
                graph.add_edge(*edge)
    assert_sweep(index, graph)


class TestAgainstBFS:
    @settings(max_examples=150, deadline=None)
    @given(ops=st.lists(_op, min_size=1, max_size=40), seed=_pick,
           journal_limit=st.sampled_from([3, 4096]),
           extra=st.integers(0, 8))
    def test_random_scripts(self, ops, seed, journal_limit, extra):
        run_script(ops, seed, journal_limit, extra)

    @pytest.mark.parametrize("transitive_force", [True, False])
    def test_thread_that_never_runs_keeps_its_slot(self, transitive_force):
        """Cuts have one slot per thread index: T4 of ``late_child`` is
        forked and joined but never runs, so its slot is 0 in every
        ancestor cut and ``len(trace) + 1`` in every descendant cut."""
        trace = late_child()
        detector = DCDetector()
        detector.transitive_force = transitive_force
        detector.analyze(trace)
        index = CutIndex(detector.graph, trace)
        assert_sweep(index, detector.graph)
        n = len(trace)
        for eid in range(n):
            ancestors = index.ancestor_cut([eid])
            descendants = index.descendant_cut([eid])
            assert len(ancestors) == len(descendants) == 4
            assert (ancestors[3], descendants[3]) == (0, n + 1)

    @settings(max_examples=60, deadline=None)
    @given(seed=_pick)
    def test_pristine_dc_graph(self, seed):
        trace, graph = dc_graph(seed)
        index = CutIndex(graph, trace)
        assert_sweep(index, graph)
        assert index.stats()["reach_invalidations"] == 0

    @settings(max_examples=60, deadline=None)
    @given(seed=_pick)
    def test_ls_candidates(self, seed):
        """The bisected candidates are the latest acquire per (thread
        index, lock index) in ``anc(src) ∪ {src}`` and the earliest
        release in ``desc(snk) ∪ {snk}``, found here by scanning the BFS
        sets."""
        rng = random.Random(seed)
        trace, graph = dc_graph(seed)
        n = len(trace)
        for _ in range(3):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                graph.add_edge(a, b)
        index = CutIndex(graph, trace)
        for eid in range(n):
            acquires, releases = {}, {}
            for x in sorted(graph.ancestors([eid], include_roots=True)):
                e = trace.events[x]
                if e.kind is EventKind.ACQUIRE:
                    acquires[(trace.tix[x], trace.tgt[x])] = x
            for x in sorted(graph.descendants([eid], include_roots=True),
                            reverse=True):
                e = trace.events[x]
                if e.kind is EventKind.RELEASE:
                    releases[(trace.tix[x], trace.tgt[x])] = x
            assert index.latest_acquires(eid) == acquires
            assert index.earliest_releases(eid) == releases
            lo, hi = sorted((eid, rng.randrange(n)))
            expected = {x for x in graph.ancestors([eid, hi],
                                                   include_roots=True)
                        if lo <= x <= hi}
            assert index.ancestors_between([eid, hi], lo, hi) == expected


class TestRebuilds:
    def _index(self):
        trace = figure2()
        detector = DCDetector()
        detector.analyze(trace)
        return trace, detector.graph, CutIndex(detector.graph, trace)

    def test_race_edges_need_no_rebuild(self):
        trace, graph, index = self._index()
        index.sync()
        src, dst = next(program_order(trace))
        assert graph.add_edge(dst, src)
        assert index.reaches(src, src)
        graph.remove_edge(dst, src)
        assert not index.reaches(src, src)
        assert index.stats() == {"reach_hits": 1, "reach_misses": 2,
                                 "reach_invalidations": 0}

    def test_removed_table_edge_rebuilds(self):
        trace, graph, index = self._index()
        index.sync()
        cross = sorted(set(graph.edges()) - set(program_order(trace)))
        graph.remove_edge(*cross[0])
        assert index.reaches(*cross[0]) == graph.reaches(*cross[0])
        assert index.invalidations == 1
        assert_sweep(index, graph)

    def test_journal_overflow_rebuilds(self):
        trace, graph, index = self._index()
        graph._JOURNAL_LIMIT = 2
        index.sync()
        last = len(trace) - 1
        for src in range(1, 5):
            graph.add_edge(last, src)
        assert_sweep(index, graph)
        assert index.invalidations == 1

    def test_journal_keeps_its_newer_half(self):
        """A consumer less than half a journal behind loses nothing."""
        graph = ConstraintGraph(10)
        graph._JOURNAL_LIMIT = 4
        for dst in range(1, 5):
            graph.add_edge(0, dst)
        pos = graph.journal_position
        graph.add_edge(5, 6)
        entries, _ = graph.mutations_since(pos)
        assert entries == [(True, 5, 6)]
        assert graph.mutations_since(0)[0] is None

    def test_graph_without_program_order_is_refused(self):
        trace, graph, index = self._index()
        graph.remove_edge(*next(program_order(trace)))
        with pytest.raises(ValueError, match="program-order"):
            index.sync()


# ----------------------------------------------------------------------
# G ⊇ PO on the DC graphs the pipeline vindicates over
# ----------------------------------------------------------------------
def assert_holds_po(graph, trace):
    missing = [edge for edge in program_order(trace)
               if not graph.has_edge(*edge)]
    assert not missing, missing[:5]


@pytest.mark.parametrize("variant", ["reference", "fast"])
@pytest.mark.parametrize("name,trace", CORPUS, ids=IDS)
def test_dc_graph_holds_program_order(variant, name, trace):
    for transitive_force in (True, False):
        detector = make_analysis_detector("dc", variant)
        detector.transitive_force = transitive_force
        detector.analyze(trace)
        assert_holds_po(detector.graph, trace)


@pytest.mark.parametrize("name,trace", CORPUS, ids=IDS)
def test_serve_session_graph_holds_program_order(name, trace):
    analyzer = SessionAnalyzer(SessionConfig(name=name, gc_window=0,
                                             vindicate_all=True))
    analyzer.feed_events(trace)
    assert_holds_po(analyzer.dc.graph, trace)
    analyzer.finish()
    assert_holds_po(analyzer.dc.graph, trace)


# ----------------------------------------------------------------------
# Pipeline counters and spans
# ----------------------------------------------------------------------
def _walk(spans):
    for span in spans:
        yield span
        yield from _walk(span.children)


class TestPipeline:
    def test_pipeline_never_rebuilds(self, monkeypatch):
        """Every race adds and removes its edges through the journal,
        which keeps its newer half: even a journal a few races long
        never makes the index rebuild."""
        monkeypatch.setattr(ConstraintGraph, "_JOURNAL_LIMIT", 64)
        trace = execute(WORKLOADS["avrora"](scale=0.4), seed=0)
        report = Vindicator(vindicate_all=True).run(trace)
        assert len(report.vindications) > 5
        counters = report.dc.counters
        assert counters.get("reach_invalidations", 0) == 0
        assert counters["reach_misses"] >= 1

    def test_one_build_span_under_pipeline_vindicate(self):
        try:
            obs.enable(sample_memory=False)
            report = Vindicator().run(figure2())
            roots = obs.tracer().roots
        finally:
            obs.disable()
        assert report.vindications
        vindicate = [s for s in _walk(roots) if s.name == "pipeline.vindicate"]
        builds = [s for s in _walk(roots) if s.name == "vindicate.cut_index"]
        assert len(vindicate) == len(builds) == 1
        assert builds[0] in vindicate[0].children
        counts = builds[0].counts
        assert counts["events"] == len(report.trace)
        assert counts["threads"] == len(report.trace.tid_names)
        assert counts["cuts"] >= 1
        assert report.obs["gauges"]["graph.closure_entries"] == counts["cuts"]

    def test_nothing_to_vindicate_builds_nothing(self):
        trace = execute(WORKLOADS["avrora"](scale=0.4), seed=0)
        try:
            obs.enable(sample_memory=False)
            report = Vindicator().run(trace)
            roots = obs.tracer().roots
        finally:
            obs.disable()
        assert not report.vindications
        assert not any(s.name == "vindicate.cut_index" for s in _walk(roots))
        assert not any(k.startswith("reach_") for k in report.dc.counters)
