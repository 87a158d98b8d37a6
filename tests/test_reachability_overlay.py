"""Differential tests for the reachability index's base + race overlay.

Random graphs run scripts of the VindicateRace bracket — ``checkpoint``,
tagged edge adds, queries, removals, ``restore`` — interleaved with the
cases the bracket must survive: the mutation journal overflowing
mid-race, a pristine edge removed (and put back) mid-race, mutations
with no checkpoint open, and ``export_state``/``import_state`` at any
point. Every answer of :class:`ReachabilityIndex` — ``descendants``,
``ancestors``, their ``*_mask`` forms and ``reaches``, with and without
``within=`` — must equal :class:`ConstraintGraph`'s BFS.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.graph.constraint_graph import ConstraintGraph
from repro.graph.reachability import ReachabilityIndex, mask_to_set

N_NODES = 12

_node = st.integers(0, N_NODES - 1)
_edge = st.tuples(_node, _node)
_window = st.one_of(
    st.none(),
    st.tuples(_node, _node).map(lambda w: (min(w), max(w))))
_op = st.one_of(
    st.tuples(st.just("add"), _edge),
    st.tuples(st.just("remove"), _edge),
    st.tuples(st.just("query"), _edge, _window),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("restore")),
    st.tuples(st.just("export")),
)


def assert_agrees(index, graph, a, b, window):
    """Every query form of ``index`` equals the graph's BFS."""
    assert index.reaches(a, b) == graph.reaches(a, b)
    for within in (None, window):
        for roots in ([a], [a, b]):
            for include in (False, True):
                assert (index.descendants(roots, include, within)
                        == graph.descendants(roots, include, within))
                assert (index.ancestors(roots, include, within)
                        == graph.ancestors(roots, include, within))
            assert (mask_to_set(index.descendants_mask(roots, within))
                    == graph.descendants(roots, within=within))
            assert (mask_to_set(index.ancestors_mask(roots, within))
                    == graph.ancestors(roots, within=within))


def assert_sweep(index, graph, window=None):
    for a in range(N_NODES):
        assert_agrees(index, graph, a, (a * 5 + 3) % N_NODES, window)


def assert_export_round_trips(index, graph):
    """The exported closures serve a clone of the graph exactly."""
    clone = graph.copy()
    importer = ReachabilityIndex(clone)
    importer.import_state(index.export_state())
    assert_sweep(importer, clone)


class Race:
    """One open checkpoint: what to undo before ``restore``."""

    def __init__(self, index):
        self.token = index.checkpoint()
        self.added = []
        self.removed = []

    def close(self, index, graph):
        for src, dst in reversed(self.added):
            graph.remove_edge(src, dst)
        for src, dst in self.removed:
            graph.add_edge(src, dst)
        index.restore(self.token)


def run_script(ops, seed, journal_limit):
    rng = random.Random(seed)
    graph = ConstraintGraph(N_NODES)
    graph._JOURNAL_LIMIT = journal_limit
    for _ in range(rng.randint(4, 24)):
        a, b = rng.randrange(N_NODES), rng.randrange(N_NODES)
        if a != b:
            graph.add_edge(a, b)
    index = ReachabilityIndex(graph)
    race = None
    for op in ops:
        kind = op[0]
        if kind == "add":
            a, b = op[1]
            if a != b and graph.add_edge(a, b) and race is not None:
                race.added.append((a, b))
        elif kind == "remove":
            a, b = op[1]
            if not graph.has_edge(a, b):
                continue
            graph.remove_edge(a, b)
            if race is not None:
                if (a, b) in race.added:
                    race.added.remove((a, b))
                else:
                    race.removed.append((a, b))  # a pristine edge
        elif kind == "query":
            (a, b), window = op[1], op[2]
            assert_agrees(index, graph, a, b, window)
        elif kind == "checkpoint":
            if race is None:
                race = Race(index)
        elif kind == "restore":
            if race is not None:
                race.close(index, graph)
                race = None
        else:
            assert_export_round_trips(index, graph)
    if race is not None:
        race.close(index, graph)
    assert_sweep(index, graph, (2, N_NODES - 3))
    assert_export_round_trips(index, graph)


class TestOverlayAgainstBFS:
    @settings(max_examples=200, deadline=None)
    @given(ops=st.lists(_op, min_size=1, max_size=50),
           seed=st.integers(0, 10_000),
           journal_limit=st.sampled_from([3, 4096]))
    def test_random_scripts(self, ops, seed, journal_limit):
        run_script(ops, seed, journal_limit)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_warm_base_then_one_race(self, seed):
        """Every closure pre-warmed into the base, then one race whose
        adds are queried before and after: the adoption test alone
        decides which base closures are still exact."""
        rng = random.Random(seed)
        graph = ConstraintGraph(N_NODES)
        for _ in range(rng.randint(4, 20)):
            a, b = rng.randrange(N_NODES), rng.randrange(N_NODES)
            if a != b:
                graph.add_edge(a, b)
        index = ReachabilityIndex(graph)
        window = (rng.randrange(4), rng.randrange(6, N_NODES))
        for a in range(N_NODES):
            index.descendants([a])
            index.ancestors([a])
            index.descendants([a], within=window)
            index.ancestors([a], within=window)
        race = Race(index)
        for _ in range(rng.randint(1, 4)):
            a, b = rng.randrange(N_NODES), rng.randrange(N_NODES)
            if a != b and graph.add_edge(a, b):
                race.added.append((a, b))
            assert_sweep(index, graph, window)
        race.close(index, graph)
        assert_sweep(index, graph, window)


class TestBracketCases:
    EDGES = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6)]

    def _warm(self):
        graph = ConstraintGraph(N_NODES)
        for src, dst in self.EDGES:
            graph.add_edge(src, dst)
        index = ReachabilityIndex(graph)
        assert_sweep(index, graph)
        return graph, index

    def test_journal_overflow_mid_race(self):
        graph, index = self._warm()
        graph._JOURNAL_LIMIT = 2
        race = Race(index)
        for src, dst in [(3, 4), (6, 7), (7, 8), (8, 9)]:
            graph.add_edge(src, dst)
            race.added.append((src, dst))
        assert_sweep(index, graph)
        race.close(index, graph)
        assert_sweep(index, graph)
        assert_export_round_trips(index, graph)

    def test_pristine_edge_removed_mid_race(self):
        graph, index = self._warm()
        race = Race(index)
        graph.remove_edge(1, 2)
        race.removed.append((1, 2))
        assert_sweep(index, graph)
        graph.add_edge(2, 4)
        race.added.append((2, 4))
        assert_sweep(index, graph)
        race.close(index, graph)
        assert_sweep(index, graph)

    def test_mutation_with_no_checkpoint_open(self):
        graph, index = self._warm()
        graph.add_edge(3, 4)
        assert_sweep(index, graph)
        graph.remove_edge(0, 1)
        race = Race(index)  # the base is pruned to the new graph here
        graph.add_edge(6, 0)
        race.added.append((6, 0))
        assert_sweep(index, graph)
        race.close(index, graph)
        assert_sweep(index, graph)

    def test_export_import_after_restore(self):
        graph, index = self._warm()
        race = Race(index)
        graph.add_edge(3, 4)
        race.added.append((3, 4))
        assert_sweep(index, graph)
        race.close(index, graph)
        assert_export_round_trips(index, graph)
        state = index.export_state()
        assert state["fwd"][0] == 0b1110  # 0 reaches 1, 2, 3 only
        assert state["bwd"][6] == 0b110000
