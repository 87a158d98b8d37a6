"""Property and unit tests for the memoizing reachability engine.

The central property: across arbitrary interleavings of tagged-edge
adds/removes and queries — including the ``within`` window path —
:class:`ReachabilityIndex` answers every ``reaches`` / ``ancestors`` /
``descendants`` query exactly like the constraint graph's brute-force
BFS, while the BFS itself is validated against a naive edge-set
transitive closure.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.constraint_graph import ConstraintGraph
from repro.graph.reachability import ReachabilityIndex, mask_to_set

N_NODES = 14

# An operation script: add/remove edges interleaved with query probes.
_edge = st.tuples(st.integers(0, N_NODES - 1), st.integers(0, N_NODES - 1))
_op = st.one_of(
    st.tuples(st.just("add"), _edge),
    st.tuples(st.just("remove"), _edge),
    st.tuples(st.just("query"), _edge),
)
_window = st.one_of(
    st.none(),
    st.tuples(st.integers(0, N_NODES - 1), st.integers(0, N_NODES - 1))
    .map(lambda w: (min(w), max(w))),
)


def naive_strict_reach(edges, roots, within=None):
    """Strict reachable-set via plain BFS over an edge set (the oracle)."""
    succ = {}
    for s, d in edges:
        succ.setdefault(s, set()).add(d)
    seen = set()
    frontier = list(roots)
    while frontier:
        node = frontier.pop()
        for nxt in succ.get(node, ()):
            if nxt in seen:
                continue
            if within is not None and not within[0] <= nxt <= within[1]:
                continue
            seen.add(nxt)
            frontier.append(nxt)
    return seen


class TestPropertyAgainstBruteForce:
    @settings(max_examples=120, deadline=None)
    @given(ops=st.lists(_op, min_size=1, max_size=60), window=_window)
    def test_index_agrees_with_bfs_under_churn(self, ops, window):
        graph = ConstraintGraph()
        index = ReachabilityIndex(graph)
        edges = set()
        for op, (a, b) in ops:
            if op == "add" and a != b:
                graph.add_edge(a, b)
                edges.add((a, b))
            elif op == "remove":
                graph.remove_edge(a, b)
                edges.discard((a, b))
            else:
                # reaches must match the graph and the naive oracle.
                expected = b in naive_strict_reach(edges, [a])
                assert graph.reaches(a, b) == expected
                assert index.reaches(a, b) == expected
                # ancestors / descendants, strict and reflexive,
                # windowed and not.
                for within in (None, window):
                    for roots in ([a], [a, b]):
                        assert (index.descendants(roots, within=within)
                                == graph.descendants(roots, within=within))
                        assert (index.ancestors(roots, within=within)
                                == graph.ancestors(roots, within=within))
                        assert (index.descendants(roots, include_roots=True,
                                                  within=within)
                                == graph.descendants(roots, include_roots=True,
                                                     within=within))
                        assert (index.ancestors(roots, include_roots=True,
                                                within=within)
                                == graph.ancestors(roots, include_roots=True,
                                                   within=within))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), window=_window)
    def test_seeded_random_graph_full_sweep(self, seed, window):
        """Every (src, dst) pair on a random graph, after a random
        add/remove history, windowed and unwindowed."""
        rng = random.Random(seed)
        graph = ConstraintGraph()
        index = ReachabilityIndex(graph)
        edges = set()
        for _ in range(rng.randint(5, 40)):
            a, b = rng.randrange(N_NODES), rng.randrange(N_NODES)
            if a == b:
                continue
            if (a, b) in edges and rng.random() < 0.4:
                graph.remove_edge(a, b)
                edges.discard((a, b))
            else:
                graph.add_edge(a, b)
                edges.add((a, b))
        for src in range(N_NODES):
            assert (index.descendants([src], within=window)
                    == naive_strict_reach(edges, [src], within=window))
            for dst in range(N_NODES):
                assert index.reaches(src, dst) == graph.reaches(src, dst)


class TestIndexMechanics:
    def test_cache_hits_and_invalidation_counters(self):
        g = ConstraintGraph()
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        idx = ReachabilityIndex(g)
        assert idx.descendants([0]) == {1, 2}
        misses_after_first = idx.misses
        assert idx.descendants([0]) == {1, 2}
        assert idx.hits >= 1
        assert idx.misses == misses_after_first  # second query fully cached
        assert idx.invalidations == 0
        g.add_edge(2, 3)  # mutation invalidates on next query
        assert idx.descendants([0]) == {1, 2, 3}
        assert idx.invalidations == 1

    def test_removal_invalidates(self):
        g = ConstraintGraph()
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        idx = ReachabilityIndex(g)
        assert idx.reaches(0, 2)
        g.remove_edge(1, 2)
        assert not idx.reaches(0, 2)

    def test_tagged_edge_churn_round_trip(self):
        """The VindicateRace pattern: add tagged edges, query, remove
        them, query again — answers must track the graph exactly."""
        g = ConstraintGraph()
        for s, d in [(0, 1), (1, 2), (3, 4)]:
            g.add_edge(s, d)
        idx = ReachabilityIndex(g)
        assert not idx.reaches(0, 4)
        tagged = [(2, 3)]
        for s, d in tagged:
            g.add_edge(s, d)
        assert idx.reaches(0, 4)
        for s, d in reversed(tagged):
            g.remove_edge(s, d)
        assert not idx.reaches(0, 4)
        assert idx.invalidations >= 2

    def test_reaches_self_only_on_cycle(self):
        g = ConstraintGraph()
        g.add_edge(0, 1)
        idx = ReachabilityIndex(g)
        assert not idx.reaches(0, 0)
        g.add_edge(1, 0)
        assert idx.reaches(0, 0)

    def test_window_restricts_traversal_not_roots(self):
        # Mirrors test_window.py's semantics: roots expand even when
        # outside the window; discovered nodes are filtered.
        g = ConstraintGraph()
        g.add_edge(0, 5)
        g.add_edge(5, 10)
        g.add_edge(10, 20)
        idx = ReachabilityIndex(g)
        assert idx.descendants([0]) == {5, 10, 20}
        assert idx.descendants([0], within=(0, 10)) == {5, 10}
        assert idx.descendants([0], within=(0, 9)) == {5}
        assert idx.ancestors([10], within=(5, 10)) == {5}

    def test_sub_closure_reuse_is_exact(self):
        # Query an inner node first so the outer query absorbs its
        # cached closure; results must not differ from a cold query.
        g = ConstraintGraph()
        for s, d in [(0, 1), (1, 2), (2, 3), (1, 4), (4, 2)]:
            g.add_edge(s, d)
        idx = ReachabilityIndex(g)
        inner = idx.descendants([1])
        outer = idx.descendants([0])
        cold = ConstraintGraph()
        for s, d in [(0, 1), (1, 2), (2, 3), (1, 4), (4, 2)]:
            cold.add_edge(s, d)
        assert inner == cold.descendants([1])
        assert outer == cold.descendants([0])

    def test_masks_match_sets(self):
        g = ConstraintGraph()
        for s, d in [(0, 1), (1, 2), (5, 1)]:
            g.add_edge(s, d)
        idx = ReachabilityIndex(g)
        assert mask_to_set(idx.descendants_mask([0])) == idx.descendants([0])
        assert mask_to_set(idx.ancestors_mask([2])) == idx.ancestors([2])

    def test_out_of_range_nodes(self):
        g = ConstraintGraph()
        g.add_edge(0, 1)
        idx = ReachabilityIndex(g)
        assert idx.descendants([99]) == set()
        assert idx.ancestors([99]) == set()
        assert not idx.reaches(99, 0)

    def test_stats_dict_shape(self):
        idx = ReachabilityIndex(ConstraintGraph())
        assert set(idx.stats()) == {"reach_hits", "reach_misses",
                                    "reach_invalidations"}


class TestCheckpointRestore:
    """The vindicate-loop bracket: checkpoint, churn tagged edges,
    un-churn, restore — answers must match a never-churned index and the
    cache must come back warm."""

    EDGES = [(0, 1), (1, 2), (3, 4), (4, 5)]

    def _build(self):
        g = ConstraintGraph()
        for s, d in self.EDGES:
            g.add_edge(s, d)
        return g, ReachabilityIndex(g)

    def test_restore_after_balanced_churn_is_exact(self):
        g, idx = self._build()
        assert idx.descendants([0]) == {1, 2}
        cp = idx.checkpoint()
        g.add_edge(2, 3)  # the race's tagged edge
        assert idx.descendants([0]) == {1, 2, 3, 4, 5}
        g.remove_edge(2, 3)
        idx.restore(cp)
        assert idx.descendants([0]) == {1, 2}
        assert idx.descendants([3]) == {4, 5}
        assert idx.ancestors([5]) == {3, 4}

    def test_restore_resurrects_pruned_closures(self):
        g, idx = self._build()
        idx.descendants([0])  # warm node 0's closure
        cp = idx.checkpoint()
        g.add_edge(2, 3)  # invalidates node 0's closure chain
        idx.descendants([0])
        g.remove_edge(2, 3)
        idx.restore(cp)
        misses_before = idx.misses
        assert idx.descendants([0]) == {1, 2}
        assert idx.misses == misses_before  # served from restored cache

    def test_restore_keeps_untouched_closures_computed_after_checkpoint(self):
        g, idx = self._build()
        cp = idx.checkpoint()
        g.add_edge(2, 3)
        # 3→{4,5} is exact for the pristine graph too: churn never
        # touched it, so the prune-then-merge restore must keep it warm.
        idx.descendants([3])
        g.remove_edge(2, 3)
        idx.restore(cp)
        misses_before = idx.misses
        assert idx.descendants([3]) == {4, 5}
        assert idx.misses == misses_before

    def test_counters_survive_restore(self):
        g, idx = self._build()
        idx.descendants([0])
        cp = idx.checkpoint()
        hits, misses = idx.hits, idx.misses
        g.add_edge(2, 3)
        idx.descendants([0])
        g.remove_edge(2, 3)
        idx.restore(cp)
        assert idx.misses >= misses  # counters accumulate, never reset
        assert idx.hits >= hits

    def test_randomised_churn_round_trips(self):
        rng = random.Random(42)
        g = ConstraintGraph()
        edges = set()
        for _ in range(25):
            s, d = rng.randrange(N_NODES), rng.randrange(N_NODES)
            if s != d and (s, d) not in edges:
                g.add_edge(s, d)
                edges.add((s, d))
        idx = ReachabilityIndex(g)
        for node in range(0, N_NODES, 3):
            idx.descendants([node])
        for trial in range(10):
            cp = idx.checkpoint()
            tagged = []
            for _ in range(rng.randrange(1, 5)):
                s, d = rng.randrange(N_NODES), rng.randrange(N_NODES)
                if s != d and (s, d) not in edges:
                    g.add_edge(s, d)
                    edges.add((s, d))
                    tagged.append((s, d))
            idx.descendants([rng.randrange(N_NODES)])
            for s, d in reversed(tagged):
                g.remove_edge(s, d)
                edges.discard((s, d))
            idx.restore(cp)
            for node in range(N_NODES):
                assert idx.descendants([node]) == \
                    naive_strict_reach(edges, [node])


class TestStateExportImport:
    def test_round_trip_serves_queries_without_misses(self):
        g = ConstraintGraph()
        for s, d in [(0, 1), (1, 2), (2, 3)]:
            g.add_edge(s, d)
        exporter = ReachabilityIndex(g)
        exporter.descendants([0])
        exporter.ancestors([3])
        state = exporter.export_state()

        clone = g.copy()
        importer = ReachabilityIndex(clone)
        importer.import_state(state)
        misses_before = importer.misses
        assert importer.descendants([0]) == {1, 2, 3}
        assert importer.ancestors([3]) == {0, 1, 2}
        assert importer.misses == misses_before

    def test_state_is_picklable(self):
        import pickle
        g = ConstraintGraph()
        g.add_edge(0, 1)
        idx = ReachabilityIndex(g)
        idx.descendants([0])
        state = pickle.loads(pickle.dumps(idx.export_state()))
        assert set(state) == {"fwd", "bwd"}

    def test_empty_state_import_is_noop(self):
        g = ConstraintGraph()
        g.add_edge(0, 1)
        idx = ReachabilityIndex(g)
        idx.import_state({"fwd": {}, "bwd": {}})
        assert idx.descendants([0]) == {1}


class TestVindicatorSurfacesCounters:
    def test_counters_reach_dc_report(self):
        from repro.traces.litmus import figure2
        from repro.vindicate.vindicator import Vindicator
        report = Vindicator().run(figure2())
        assert report.vindications, "figure2 must produce a DC-only race"
        counters = report.dc.counters
        assert counters.get("reach_misses", 0) > 0

    def test_index_shared_across_races_in_serial_loop(self):
        # One ReachabilityIndex serves the whole vindication loop; the
        # checkpoint/restore bracket keeps it warm between races, so a
        # multi-race run must record far more hits than misses.
        from repro.runtime import execute
        from repro.runtime.workloads import WORKLOADS
        from repro.vindicate.vindicator import Vindicator
        trace = execute(WORKLOADS["avrora"](scale=0.4), seed=0)
        report = Vindicator(vindicate_all=True).run(trace)
        assert len(report.vindications) > 5
        counters = report.dc.counters
        assert counters["reach_hits"] > counters["reach_misses"]


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
