"""Cost guards for the two hot vindication passes (deterministic counts).

* **Observed-order replay.** When a race's witness is the observed
  order, ``construct`` places every event by the replay and reads no
  adjacency at all: no successor scan builds the greedy's ``blocking``
  map, and no predecessor scan updates it.
* **Cut witnesses.** The constructor's fast path and the checker's cut
  check work from per-thread tables, so padding each racing thread with
  ten times its length of independent events leaves their work — index
  probes, bisections and reads of the trace's per-event lists —
  unchanged for every race.
* **Cycle window.** The cycle search only visits the racing pair's
  ancestors between the graph's lowest backward target and highest
  backward source. Padding every racing thread with a long prefix of
  independent events adds ancestors below that span, so the number of
  nodes the DFS visits must not move. A forward-only graph has no cycle
  and gets no DFS at all.
"""

from collections import Counter

import pytest

from repro.analysis.dc import DCDetector
from repro.core.events import Event, EventKind
from repro.core.trace import Trace
from repro.core.witness import CutWitness
from repro.graph import cuts
from repro.graph.constraint_graph import ConstraintGraph
from repro.graph.cuts import CutIndex
from repro.runtime import execute
from repro.runtime.workloads import WORKLOADS
from repro.traces.gen import GeneratorConfig, random_trace
from repro.traces.litmus import figure2, figure4a
from repro.vindicate import verify
from repro.vindicate.add_constraints import add_constraints
from repro.vindicate.construct import construct_reordered_trace
from repro.vindicate.verify import check_witness


class _CountingGraph:
    """Forwards to a graph and counts adjacency reads."""

    def __init__(self, graph):
        self._graph = graph
        self.reads = 0

    def successor_set(self, node):
        self.reads += 1
        return self._graph.successor_set(node)

    def predecessor_set(self, node):
        self.reads += 1
        return self._graph.predecessor_set(node)

    def __getattr__(self, name):
        return getattr(self._graph, name)


def _dfs_visits(monkeypatch, graph):
    """Count the nodes ``graph.find_cycle_reaching`` expands (one
    successor read each), across every call."""
    counter = {"visits": 0}
    search = graph.find_cycle_reaching
    read = graph.successor_set

    def counting_read(node):
        counter["visits"] += 1
        return read(node)

    def counted_search(targets, region=None):
        graph.successor_set = counting_read
        try:
            return search(targets, region)
        finally:
            del graph.successor_set

    monkeypatch.setattr(graph, "find_cycle_reaching", counted_search)
    return counter


# ----------------------------------------------------------------------
# Observed-order replay
# ----------------------------------------------------------------------
def test_observed_order_witness_reads_no_adjacency():
    trace = execute(WORKLOADS["xalan"](scale=1), seed=3)
    detector = DCDetector()
    races = detector.analyze(trace).races
    graph = detector.graph
    index = CutIndex(graph, trace)
    checked = 0
    for race in races:
        e1, e2 = race.first, race.second
        added = add_constraints(graph, trace, e1, e2, index=index)
        assert not added.refuted
        needed = graph.ancestors([e1.eid, e2.eid]) - {e1.eid, e2.eid}
        counting = _CountingGraph(graph)
        witness, stats = construct_reordered_trace(
            counting, trace, e1, e2, index=index)
        for src, dst in reversed(added.added_edges):
            graph.remove_edge(src, dst)
        if [e.eid for e in witness.events()] != sorted(needed) + [e1.eid, e2.eid]:
            continue
        checked += 1
        assert counting.reads == 0, (e1, e2, counting.reads)
        assert stats.replayed_events == len(needed)
        assert stats.placed_events == len(needed) + 2
    assert checked >= 3


def test_replay_hands_over_to_the_greedy():
    """A witness that reorders critical sections: an LS edge points
    backward into the needed set from its latest event, so the replay
    places nothing and the greedy builds the whole witness."""
    config = GeneratorConfig(threads=3, events=40, locks=2, variables=1,
                             acquire_weight=0.4, release_weight=0.3,
                             write_fraction=0.7)
    trace = random_trace(36, config)
    detector = DCDetector()
    race = detector.analyze(trace).races[7]
    add_constraints(detector.graph, trace, race.first, race.second)
    counting = _CountingGraph(detector.graph)
    witness, stats = construct_reordered_trace(
        counting, trace, race.first, race.second)
    order = [e.eid for e in witness.events()]
    assert order[:-2] != sorted(order[:-2])
    assert stats.replayed_events == 0
    assert counting.reads > 0


# ----------------------------------------------------------------------
# Cut witnesses
# ----------------------------------------------------------------------
def _padded_threads(trace: Trace, tids, factor: int) -> Trace:
    """``trace`` with ``factor`` times each of ``tids``' length of writes
    to variables of their own inserted right after that thread's first
    event: program-order ancestors of its later races, related to
    nothing else. (After, not before: a race on a thread's first event
    keeps an empty prefix of that thread.)"""
    pads = {tid: factor * len(trace.eids_of(tid)) for tid in tids}
    out = []
    for e in trace:
        out.append(e)
        out.extend(Event(0, e.tid, EventKind.WRITE, f"pad.{e.tid}.{i}")
                   for i in range(pads.pop(e.tid, 0)))
    return Trace.from_events(out)


class _Work(Counter):
    """Work counts per phase: calls of the hooked functions, and
    elements read from the trace's per-event lists."""

    phase = "other"

    def hook(self, monkeypatch, owner, names):
        for name in names:
            original = getattr(owner, name)

            def counted(*args, _original=original, **kwargs):
                self[self.phase] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)

    def watch(self, monkeypatch, trace):
        for name in ("events", "local_time", "enclosing_acquires"):
            monkeypatch.setattr(trace, name,
                                _CountingList(getattr(trace, name), self))


class _CountingList(list):
    def __init__(self, items, work):
        super().__init__(items)
        self.work = work

    def __getitem__(self, key):
        item = super().__getitem__(key)
        self.work[self.work.phase] += len(item) if isinstance(key, slice) else 1
        return item

    def __iter__(self):
        self.work[self.work.phase] += len(self)
        return super().__iter__()


def _witness_work(monkeypatch, trace):
    """Per race: the witness's form, and the work that constructing it
    and checking it took."""
    work = _Work()
    work.hook(monkeypatch, cuts, ("bisect_left", "bisect_right"))
    work.hook(monkeypatch, CutIndex, ("ancestor_cut", "holds", "last_event",
                                      "last_acquire", "cut_events"))
    work.hook(monkeypatch, verify, ("bisect_left", "bisect_right"))
    detector = DCDetector()
    races = detector.analyze(trace).races
    index = CutIndex(detector.graph, trace)
    index.sync()
    # The first check builds the checker's index: one pass, not per race.
    verify._trace_index(trace)
    work.watch(monkeypatch, trace)
    found = []
    for race in races:
        e1, e2 = race.first, race.second
        added = add_constraints(detector.graph, trace, e1, e2, index=index)
        work.clear()
        work.phase = "construct"
        witness, stats = construct_reordered_trace(
            detector.graph, trace, e1, e2, index=index)
        work.phase = "check"
        if witness is not None:
            check_witness(trace, witness, e1, e2)
        work.phase = "other"
        found.append((type(witness).__name__, stats.attempts,
                      work["construct"], work["check"]))
        for src, dst in reversed(added.added_edges):
            detector.graph.remove_edge(src, dst)
    return found


def test_padding_racing_threads_leaves_witness_work_unchanged(monkeypatch):
    """A missing-release retry runs the replay and greedy on its first
    attempt, which walk the needed set; only its check, and the
    construction of first-attempt cut witnesses, must not grow."""
    trace = execute(WORKLOADS["xalan"](scale=1), seed=3)
    races = DCDetector().analyze(trace).races
    tids = {e.tid for race in races for e in (race.first, race.second)}
    base = _witness_work(monkeypatch, trace)
    padded = _witness_work(monkeypatch, _padded_threads(trace, tids, 10))
    assert [race[:2] for race in base] == [race[:2] for race in padded]
    cut = CutWitness.__name__
    for (form, attempts, built, checked), (_, _, padded_built,
                                           padded_checked) in zip(base, padded):
        if form != cut:
            continue
        assert checked and padded_checked == checked
        if attempts == 1:
            assert built and padded_built == built
    assert sum(form == cut and attempts == 1
               for form, attempts, _, _ in base) >= 3


# ----------------------------------------------------------------------
# Cycle window
# ----------------------------------------------------------------------
def _padded(trace: Trace, factor: int) -> Trace:
    """``trace`` with ``factor × len(trace)`` thread-local writes in
    front, spread over its threads: new program-order ancestors of every
    race, related to nothing else."""
    tids = sorted({e.tid for e in trace})
    pad = [Event(0, tids[i % len(tids)], EventKind.WRITE, f"pad{i}")
           for i in range(factor * len(trace))]
    return Trace.from_events(pad + list(trace))


def _race_visits(monkeypatch, trace, race_index=-1, transitive_force=True):
    detector = DCDetector()
    detector.transitive_force = transitive_force
    race = detector.analyze(trace).races[race_index]
    counter = _dfs_visits(monkeypatch, detector.graph)
    result = add_constraints(detector.graph, trace, race.first, race.second)
    return counter["visits"], result


@pytest.mark.parametrize("factory,transitive_force", [
    (figure2, True),
    (figure4a, False),
])
def test_prefix_padding_leaves_dfs_visits_unchanged(monkeypatch, factory,
                                                    transitive_force):
    trace = factory()
    base, base_result = _race_visits(monkeypatch, trace,
                                     transitive_force=transitive_force)
    padded, padded_result = _race_visits(monkeypatch, _padded(trace, 10),
                                         transitive_force=transitive_force)
    assert base > 0
    assert padded == base
    assert padded_result.refuted == base_result.refuted


def test_forward_only_graph_gets_no_dfs(monkeypatch):
    graph = ConstraintGraph(6)
    for src, dst in [(0, 1), (1, 2), (0, 3), (3, 4), (2, 5), (4, 5)]:
        graph.add_edge(src, dst)
    counter = _dfs_visits(monkeypatch, graph)
    assert graph.find_cycle_reaching({5}) is None
    assert graph.find_cycle_reaching({5}, region=set(range(6))) is None
    assert counter["visits"] == 0


def test_cycle_outside_span_is_impossible():
    """The lemma behind the window: a graph whose only backward edge is
    2 -> 1 can have cycles only among nodes 1..2."""
    graph = ConstraintGraph(5)
    for src, dst in [(0, 1), (1, 2), (2, 1), (2, 3), (3, 4)]:
        graph.add_edge(src, dst)
    assert graph.backward_span() == (1, 2)
    assert sorted(set(graph.find_cycle_reaching({4}))) == [1, 2]
