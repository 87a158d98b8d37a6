"""Differential tests: ``ProgramOrderGraph`` vs the reference ``ConstraintGraph``.

The epoch DC detector builds :class:`~repro.graph.program_order.ProgramOrderGraph`,
which stores only the non-program-order edges and reads PO from the
trace; the reference DC detector builds a
:class:`~repro.graph.constraint_graph.ConstraintGraph` that stores every
edge. On random traces and on the ``test_graph_backward`` corpus:

* the two graphs have the same edge set once PO is expanded;
* every query (``has_edge``, ``ancestors``/``descendants`` with and
  without ``within``, ``reaches``, ``backward_span``,
  ``find_cycle_reaching``) agrees after interleaved non-PO adds and
  removes, journal overflow included, and the journals report the same
  mutations;
* a :class:`~repro.graph.cuts.CutIndex` over each graph answers every
  query identically.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.dc import DCDetector
from repro.analysis.smarttrack import EpochDCDetector
from repro.core.trace import TraceBuilder
from repro.graph.constraint_graph import ConstraintGraph
from repro.graph.cuts import CutIndex
from repro.graph.program_order import ProgramOrderGraph
from repro.traces.gen import GeneratorConfig, random_trace
from test_graph_backward import CORPUS, IDS

SETTINGS = settings(max_examples=80, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

configs = st.builds(
    GeneratorConfig,
    threads=st.integers(2, 4),
    events=st.integers(4, 24),
    variables=st.integers(1, 3),
    locks=st.integers(1, 2),
    max_nesting=st.integers(1, 2),
    use_fork_join=st.booleans(),
    volatiles=st.integers(0, 1),
)

_pick = st.integers(0, 10_000)
_op = st.one_of(
    st.tuples(st.just("add"), _pick, _pick),
    st.tuples(st.just("remove"), _pick, _pick),
)


def graphs(trace, transitive_force=True):
    """The reference and production DC graphs of ``trace``."""
    pair = []
    for detector in (DCDetector(), EpochDCDetector()):
        detector.transitive_force = transitive_force
        detector.analyze(trace)
        pair.append(detector.graph)
    reference, production = pair
    assert type(reference) is ConstraintGraph
    assert isinstance(production, ProgramOrderGraph)
    return reference, production


def assert_same_edges(reference, production):
    assert sorted(reference.edges()) == sorted(production.edges())
    assert reference.edge_count == production.edge_count
    assert reference.stats()["edges"] == production.stats()["edges"]


def assert_queries_agree(reference, production, rng):
    n = reference.num_events
    assert reference.backward_edges() == production.backward_edges()
    assert reference.backward_span() == production.backward_span()
    for _ in range(6):
        a, b = rng.randrange(n), rng.randrange(n)
        lo, hi = sorted((rng.randrange(n), rng.randrange(n)))
        assert reference.has_edge(a, b) == production.has_edge(a, b)
        assert reference.reaches(a, b) == production.reaches(a, b)
        assert reference.reaches(a, a) == production.reaches(a, a)
        assert (sorted(reference.successors(a))
                == sorted(production.successors(a)))
        assert (sorted(reference.predecessors(a))
                == sorted(production.predecessors(a)))
        for roots in ([a], [a, b]):
            for include in (False, True):
                for within in (None, (lo, hi)):
                    assert (reference.ancestors(roots, include, within)
                            == production.ancestors(roots, include, within))
                    assert (reference.descendants(roots, include, within)
                            == production.descendants(roots, include, within))
        targets = {a, b}
        assert (reference.find_cycle_reaching(targets)
                == production.find_cycle_reaching(targets))


def assert_cut_indexes_agree(trace, reference, production, rng):
    indexes = [CutIndex(reference, trace), CutIndex(production, trace)]
    n = len(trace)
    for _ in range(6):
        a, b = rng.randrange(n), rng.randrange(n)
        lo, hi = sorted((rng.randrange(n), rng.randrange(n)))
        answers = [(index.ancestor_cut([a, b]), index.descendant_cut([a]),
                    index.ancestors([a], True), index.descendants([b]),
                    index.reaches(a, b), index.reaches(a, a),
                    index.latest_acquires(a), index.earliest_releases(b),
                    index.ancestors_between([a, b], lo, hi))
                   for index in indexes]
        assert answers[0] == answers[1]
    assert indexes[0].stats() == indexes[1].stats()


def run_script(trace, ops, journal_limit):
    """Apply ``ops`` to both graphs: adds of any pair, removes of a
    stored (non-PO) edge. A small ``journal_limit`` overflows the
    journals; the reference's also holds its PO edges, so the two
    overflow at different times and only the answers are compared."""
    reference, production = graphs(trace)
    reference._JOURNAL_LIMIT = production._JOURNAL_LIMIT = journal_limit
    overflows = journal_limit < 2 * len(ops)
    rng = random.Random(len(ops))
    assert_cut_indexes_agree(trace, reference, production, rng)
    indexes = [CutIndex(reference, trace), CutIndex(production, trace)]
    for index in indexes:
        index.sync()
    start = [reference.journal_position, production.journal_position]
    n = len(trace)
    for kind, x, y in ops:
        if kind == "add":
            src, dst = x % n, y % n
            if src != dst:
                assert (reference.add_edge(src, dst)
                        == production.add_edge(src, dst))
        else:
            stored = sorted(production.stored_edges())
            if stored:
                edge = stored[x % len(stored)]
                reference.remove_edge(*edge)
                production.remove_edge(*edge)
        assert_queries_agree(reference, production, rng)
        a, b = x % n, y % n
        answers = [(index.ancestors([a]), index.descendants([a, b]),
                    index.reaches(a, b)) for index in indexes]
        assert answers[0] == answers[1]
    assert_same_edges(reference, production)
    if not overflows:
        mutations = [graph.mutations_since(pos)[0]
                     for graph, pos in zip((reference, production), start)]
        assert mutations[0] == mutations[1]
        assert indexes[0].stats() == indexes[1].stats()


class TestRandomTraces:
    @SETTINGS
    @given(seed=_pick, config=configs, transitive_force=st.booleans())
    def test_same_edge_set(self, seed, config, transitive_force):
        assert_same_edges(*graphs(random_trace(seed, config),
                                  transitive_force))

    @SETTINGS
    @given(seed=_pick, config=configs,
           ops=st.lists(_op, min_size=1, max_size=24),
           journal_limit=st.sampled_from([3, 4096]))
    def test_queries_after_adds_and_removes(self, seed, config, ops,
                                            journal_limit):
        run_script(random_trace(seed, config), ops, journal_limit)


@pytest.mark.parametrize("name,trace", CORPUS, ids=IDS)
def test_corpus(name, trace):
    for transitive_force in (True, False):
        assert_same_edges(*graphs(trace, transitive_force))
    rng = random.Random(name)
    n = len(trace)
    ops = [(rng.choice(("add", "remove")), rng.randrange(n),
            rng.randrange(n)) for _ in range(12)]
    run_script(trace, ops, journal_limit=4)


# ----------------------------------------------------------------------
# The production graph's own contract
# ----------------------------------------------------------------------
def two_threads():
    trace = (TraceBuilder().wr(1, "x").wr(2, "y").wr(1, "x").wr(2, "y")
             .build())
    return trace, ProgramOrderGraph(trace)


def test_program_order_is_present_but_not_stored():
    trace, graph = two_threads()
    assert graph.has_edge(0, 2) and graph.has_edge(1, 3)
    assert not graph.has_edge(2, 0) and not graph.has_edge(0, 1)
    assert graph.add_edge(0, 2) is False
    assert graph.generation == 0 and graph.journal_position == 0
    assert graph.stats() == {"nodes": 4, "edges": 2, "stored_edges": 0,
                             "generation": 0}
    assert graph.add_edge(0, 3)
    assert graph.add_edge(0, 3) is False
    assert graph.successors(0) == [2, 3]
    assert graph.predecessors(3) == [1, 0]
    assert list(graph.stored_edges()) == [(0, 3)]
    assert graph.stats()["stored_edges"] == 1
    assert graph.stats()["edges"] == 3


def test_program_order_cannot_be_removed():
    _, graph = two_threads()
    with pytest.raises(ValueError, match="program-order"):
        graph.remove_edge(0, 2)
    graph.remove_edge(0, 1)  # absent: a no-op, as in ConstraintGraph
    assert graph.generation == 0


def test_edges_must_stay_in_the_trace():
    _, graph = two_threads()
    with pytest.raises(ValueError):
        graph.add_edge(0, 4)
    with pytest.raises(ValueError):
        graph.add_edge(1, 1)


def test_copy_is_independent():
    _, graph = two_threads()
    graph.add_edge(3, 0)
    clone = graph.copy()
    clone.remove_edge(3, 0)
    assert graph.backward_edges() == {(3, 0)}
    assert clone.backward_edges() == frozenset()
    assert sorted(clone.edges()) == [(0, 2), (1, 3)]


@pytest.mark.parametrize("make", ["reference", "production"])
def test_cycle_does_not_depend_on_insertion_order(make):
    """Two cycles through node 0; which one the search reports must not
    depend on the order node 0's out-edges were added in (nodes 1 and
    9 share a slot of a small set's hash table)."""
    builder = TraceBuilder()
    for tid in range(10):
        builder.wr(tid, "x")
    trace = builder.build()
    cycles = []
    for first, second in ((9, 1), (1, 9)):
        graph = (ConstraintGraph(10) if make == "reference"
                 else ProgramOrderGraph(trace))
        for dst in (first, second):
            graph.add_edge(0, dst)
            graph.add_edge(dst, 0)
        cycles.append(graph.find_cycle_reaching({0}))
    assert cycles[0] == cycles[1] == [0, 1, 0]
