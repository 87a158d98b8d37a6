"""Backward-edge bookkeeping of :class:`ConstraintGraph`.

The graph keeps its edges with ``dst < src`` so the cycle search can
skip forward-only graphs and look only inside the backward span. The
set must match a brute-force scan of the edges after any script of
mutations and copies; and the DC detectors (reference, epoch, streamed
or whole-trace, and a serve session) must leave none, which is what
makes the span of a race's graph the race's own constraints.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.variants import make_analysis_detector
from repro.graph.constraint_graph import ConstraintGraph
from repro.graph.cuts import CutIndex
from repro.runtime import execute
from repro.runtime.workloads import WORKLOADS
from repro.serve.session import SessionAnalyzer, SessionConfig
from repro.traces.litmus import ALL as LITMUS
from repro.vindicate.add_constraints import add_constraints
from test_litmus import late_child

NODES = 8


def brute_backward(graph):
    return {(src, dst) for src, dst in graph.edges() if dst < src}


def brute_span(graph):
    back = brute_backward(graph)
    if not back:
        return None
    return min(dst for _, dst in back), max(src for src, _ in back)


edge = st.tuples(st.integers(0, NODES - 1), st.integers(0, NODES - 1)).filter(
    lambda e: e[0] != e[1])
steps = st.lists(st.one_of(
    st.tuples(st.just("add"), edge),
    st.tuples(st.just("remove"), edge),
    st.tuples(st.just("copy"), st.none()),
), max_size=40)


@settings(max_examples=200, deadline=None)
@given(script=steps)
def test_bookkeeping_matches_brute_force(script):
    graph = ConstraintGraph(NODES)
    for op, arg in script:
        if op == "add":
            graph.add_edge(*arg)
        elif op == "remove":
            graph.remove_edge(*arg)
        else:
            clone = graph.copy()
            assert clone.backward_edges() == graph.backward_edges()
            graph = clone
        assert graph.backward_edges() == brute_backward(graph)
        assert graph.backward_span() == brute_span(graph)


def test_copy_is_independent():
    graph = ConstraintGraph(3)
    graph.add_edge(2, 0)
    clone = graph.copy()
    clone.remove_edge(2, 0)
    assert graph.backward_edges() == {(2, 0)}
    assert clone.backward_edges() == frozenset()


def test_self_edge_still_raises():
    with pytest.raises(ValueError):
        ConstraintGraph(2).add_edge(1, 1)


# ----------------------------------------------------------------------
# The DC detectors build forward-only graphs
# ----------------------------------------------------------------------
def corpus():
    for name in sorted(LITMUS):
        yield f"litmus-{name}", LITMUS[name]()
    yield "late-child", late_child()
    for name in sorted(WORKLOADS):
        yield name, execute(WORKLOADS[name](scale=1), seed=7)


CORPUS = list(corpus())
IDS = [name for name, _ in CORPUS]


#: ``"handle"`` drives the epoch detector event by event
#: (``begin_trace``, ``handle``, ``finish``), the path a streaming caller
#: takes, rather than through its whole-trace ``analyze()`` loop.
@pytest.mark.parametrize("variant", ["reference", "fast", "handle"])
@pytest.mark.parametrize("name,trace", CORPUS, ids=IDS)
def test_dc_graph_points_forward(variant, name, trace):
    for transitive_force in (True, False):
        detector = make_analysis_detector(
            "dc", "fast" if variant == "handle" else variant)
        detector.transitive_force = transitive_force
        if variant == "handle":
            detector.begin_trace(trace)
            for event in trace:
                detector.handle(event.eid)
            detector.finish()
        else:
            detector.analyze(trace)
        assert detector.graph.edge_count
        assert detector.graph.backward_edges() == frozenset(), name


@pytest.mark.parametrize("name,trace", CORPUS, ids=IDS)
def test_serve_session_graph_points_forward(name, trace):
    analyzer = SessionAnalyzer(SessionConfig(name=name, gc_window=0,
                                             vindicate_all=True))
    analyzer.feed_events(trace)
    assert analyzer.dc.graph.backward_edges() == frozenset()
    analyzer.finish()
    # Vindication added and removed each race's constraints.
    assert analyzer.dc.graph.backward_edges() == frozenset()


def test_race_graph_backward_edges_are_the_races_own():
    """During a race the backward edges are exactly the race's added
    constraints that point backward; untagging removes them all."""
    seen = 0
    for _, trace in CORPUS:
        detector = make_analysis_detector("dc", "reference")
        detector.transitive_force = False
        races = detector.analyze(trace).races
        graph = detector.graph
        index = CutIndex(graph, trace)
        for race in races:
            added = add_constraints(graph, trace, race.first, race.second,
                                    index=index).added_edges
            own = {(src, dst) for src, dst in added if dst < src}
            assert graph.backward_edges() == own
            seen += len(own)
            for src, dst in reversed(added):
                graph.remove_edge(src, dst)
            assert graph.backward_edges() == frozenset()
    assert seen
