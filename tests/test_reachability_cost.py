"""Cost guards for the reachability index's per-race cache upkeep.

* **Per-race upkeep independent of the cache.** N closures (N = 2,000
  and 20,000) are pre-warmed, then one race adds one edge, queries k
  nodes and is closed again. Every closure dict inside the index is
  swapped for one that counts the entries read from it; the count over
  ``checkpoint``, the queries' catch-up and ``restore`` must be the same
  for both N, and ``checkpoint`` must copy no cache.
* **No module state that grows with the trace.**
  ``repro.graph.reachability`` and ``repro.graph.cuts`` must hold no
  module-level container that is larger after vindicating xalan at
  scale 8 than at scale 2.
* **Observability.** Each race's untagging and index restore is one
  ``vindicate.untag`` span, and the closure cache's size is published
  as obs-only gauges, never as report counters.
"""

import pytest

from repro import obs
from repro.graph import cuts, reachability
from repro.graph.constraint_graph import ConstraintGraph
from repro.graph.reachability import ReachabilityIndex
from repro.runtime import execute
from repro.runtime.workloads import WORKLOADS
from repro.traces.litmus import figure2
from repro.vindicate.vindicator import Vindicator

#: Nodes below HUB form a chain; node i >= HUB points at i % HUB, so its
#: forward closure stays at most HUB bits wide whatever N is.
HUB = 64
#: The race's queried nodes and its one tagged edge, all above HUB.
QUERIED = range(HUB, HUB + 10)
TAGGED = (HUB + 6, HUB + 7)


class _CountingDict(dict):
    """A closure cache that counts the entries read from it."""

    reads = 0

    def _count(self, n):
        _CountingDict.reads += n

    def __getitem__(self, key):
        self._count(1)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self._count(1)
        return super().get(key, default)

    def __contains__(self, key):
        self._count(1)
        return super().__contains__(key)

    def __iter__(self):
        self._count(len(self))
        return super().__iter__()

    def keys(self):
        self._count(len(self))
        return super().keys()

    def values(self):
        self._count(len(self))
        return super().values()

    def items(self):
        self._count(len(self))
        return super().items()

    def copy(self):
        self._count(len(self))
        return super().copy()


def _is_closure_cache(value):
    return (isinstance(value, dict) and value
            and all(isinstance(k, int) and isinstance(v, int)
                    for k, v in value.items()))


def _count_closure_caches(index):
    """Swap every ``{node: bitset}`` dict held by the index, directly or
    per window, for a counting one; return how many entries they hold."""
    held = 0
    for value in vars(index).values():
        if not isinstance(value, dict):
            continue
        for window, cache in list(value.items()):
            if _is_closure_cache(cache):
                value[window] = _CountingDict(cache)
                held += len(cache)
    return held


def _sizes(value, out, depth=0):
    """Lengths of every container reachable from ``value``."""
    if isinstance(value, (list, tuple, set, frozenset, dict)):
        out.append(len(value))
        if depth < 3:
            items = value.values() if isinstance(value, dict) else value
            for item in items:
                _sizes(item, out, depth + 1)
    return out


def _warm_index(n):
    graph = ConstraintGraph(n)
    for node in range(HUB - 1):
        graph.add_edge(node, node + 1)
    for node in range(HUB, n):
        graph.add_edge(node, node % HUB)
    index = ReachabilityIndex(graph)
    for node in range(n):
        index.descendants_mask([node])
        index.ancestors_mask([node])
    # Settle what the warm-up computed, as the end of a race does.
    index.restore(index.checkpoint())
    return graph, index


def _one_race(n):
    """Entries read from the pre-warmed caches over one race, and the
    container sizes inside the checkpoint token."""
    graph, index = _warm_index(n)
    assert _count_closure_caches(index) >= 2 * n
    _CountingDict.reads = 0
    token = index.checkpoint()
    at_checkpoint = _CountingDict.reads
    graph.add_edge(*TAGGED)
    for node in QUERIED:
        index.descendants([node])
        index.ancestors([node])
    assert index.ancestors([TAGGED[1]]) == {TAGGED[0]}
    graph.remove_edge(*TAGGED)
    index.restore(token)
    assert index.ancestors([TAGGED[1]]) == set()
    assert index.descendants([HUB + 1]) == set(range(1, HUB))
    return at_checkpoint, _CountingDict.reads, max(_sizes(token, [0]))


class TestPerRaceUpkeep:
    def test_base_entries_read_do_not_depend_on_cache_size(self):
        small = _one_race(2_000)
        large = _one_race(20_000)
        assert small[1] == large[1], (
            f"closure entries read over one race: {small[1]} with 2,000 "
            f"cached closures per direction, {large[1]} with 20,000")

    def test_checkpoint_copies_no_cache(self):
        at_checkpoint, _, largest = _one_race(2_000)
        assert at_checkpoint == 0
        assert largest < 2_000


class TestNoGrowingModuleState:
    def test_module_containers_do_not_grow_with_trace_length(self):
        def module_sizes():
            return {(module.__name__, name): _sizes(value, [])
                    for module in (reachability, cuts)
                    for name, value in vars(module).items()
                    if not name.startswith("__")}

        Vindicator().run(execute(WORKLOADS["xalan"](scale=2), seed=3))
        before = module_sizes()
        Vindicator().run(execute(WORKLOADS["xalan"](scale=8), seed=3))
        after = module_sizes()
        grown = sorted(name for name in after if after[name] != before.get(name))
        assert not grown, f"module state grew with the trace: {grown}"


def _walk(spans):
    for span in spans:
        yield span
        yield from _walk(span.children)


class TestObservability:
    def test_untag_span_per_race_and_closure_gauges(self):
        try:
            obs.enable(sample_memory=False)
            report = Vindicator().run(figure2())
            races = [s for s in _walk(obs.tracer().roots)
                     if s.name == "vindicate.race"]
        finally:
            obs.disable()
        assert report.vindications and len(races) == len(report.vindications)
        for race in races:
            untag = [s for s in race.children if s.name == "vindicate.untag"]
            assert len(untag) == 1
            assert untag[0].counts["edges"] >= 1
        gauges = report.obs["gauges"]
        assert gauges["graph.closure_entries"] > 0
        assert gauges["graph.closure_bytes"] > 0
        assert not any(name.startswith("closure_")
                       for name in report.dc.counters)


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
