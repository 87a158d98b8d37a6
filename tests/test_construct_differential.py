"""Old-vs-new differential for the two hot vindication passes.

``repro.vindicate.construct`` replays the observed order before it
falls back to the greedy's ready set, and ``ConstraintGraph``'s cycle
search only looks between the graph's backward edges.
``construct_reference`` keeps the passes they replaced: the greedy that
re-sorts its ready set for every event it places, and the cycle search
over the race's whole ancestor set. Both must give every race the same
verdict, the same witness (eid for eid) and the same attempt count.

Under the ``latest`` policy the constructor returns a cut witness
exactly when the reference's greedy places the needed set in observed
order (then the greedy's run is the replay), and every witness is
accepted by the witness checker in both forms: from the cut, and as the
event list it stands for.

A refuting cycle may be found from a different DFS root, so it is not
compared with the reference's; instead every NO_RACE cycle is checked
to be a real cycle of the race's constraint graph whose nodes reach
``e1`` or ``e2``.

The corpus: the litmus suite, the ten workload analogs at scales 2 and
4 with and without ``vindicate_all``, and hypothesis-generated traces —
random ones, and litmus traces interleaved with independent noise
threads, which carry the suite's NO_RACE, UNKNOWN and missing-release
cases to random positions. On DC graphs the lock-semantics check stops
the replay wherever a backward edge would, so the constructor is also
compared on its own over graphs with random extra edges.
"""

import random
from collections import Counter
from typing import Dict, List, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import construct_reference
from repro.analysis.dc import DCDetector
from repro.core.events import Event, EventKind
from repro.core.trace import Trace, TraceBuilder
from repro.core.witness import CutWitness
from repro.graph.constraint_graph import ConstraintGraph
from repro.graph.cuts import CutIndex
from repro.graph.reachability import ReachabilityIndex
from repro.runtime import execute
from repro.runtime.workloads import WORKLOADS
from repro.traces.gen import GeneratorConfig, random_trace
from repro.traces.litmus import ALL as LITMUS
from repro.vindicate.add_constraints import add_constraints
from repro.vindicate.construct import construct_reordered_trace
from repro.vindicate.verify import check_witness
from repro.vindicate.vindicator import Vindicator, vindicate_race
from test_litmus import late_child

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

Outcome = Tuple[str, object, int]


class _Reference:
    """The reference passes over one trace's DC graph, memoised by pair."""

    def __init__(self, trace: Trace, transitive_force: bool = True):
        self.trace = trace
        detector = DCDetector()
        detector.transitive_force = transitive_force
        detector.analyze(trace)
        self.graph = detector.graph
        self.index = ReachabilityIndex(self.graph)
        self.cuts = CutIndex(self.graph, trace)
        self._memo: Dict[Tuple[int, int, str], Outcome] = {}

    def outcome(self, e1: Event, e2: Event, policy: str = "latest") -> Outcome:
        key = (e1.eid, e2.eid, policy)
        if key not in self._memo:
            verdict, witness, _, attempts = construct_reference.vindicate(
                self.graph, self.trace, e1, e2, self.index, policy=policy)
            self._memo[key] = (verdict, witness, attempts)
        return self._memo[key]

    def assert_real_cycle(self, e1: Event, e2: Event, cycle: List[int]) -> None:
        """``cycle`` (as ``find_cycle_reaching`` returns it: each node's
        successor precedes it, first node repeated last) is a cycle of
        the race's constraint graph through ancestors of the race."""
        checkpoint = self.index.checkpoint()
        added = add_constraints(self.graph, self.trace, e1, e2,
                                index=self.cuts).added_edges
        try:
            assert len(cycle) >= 3 and cycle[0] == cycle[-1], cycle
            for later, earlier in zip(cycle, cycle[1:]):
                assert self.graph.has_edge(earlier, later), (earlier, later)
            region = self.index.ancestors([e1.eid, e2.eid], include_roots=True)
            assert set(cycle) <= region, cycle
        finally:
            for src, dst in reversed(added):
                self.graph.remove_edge(src, dst)
            self.index.restore(checkpoint)


def _assert_agree(reference: _Reference, vindications,
                  policy: str = "latest") -> Counter:
    """Every production vindication matches the reference; returns the
    outcome kinds seen."""
    seen: Counter = Counter()
    for v in vindications:
        e1, e2 = v.race.first, v.race.second
        new = (v.verdict.name, _eids(v.witness), v.attempts)
        old = reference.outcome(e1, e2, policy)
        assert new == old, (e1, e2)
        cut_form = isinstance(v.witness, CutWitness)
        assert cut_form == (policy == "latest" and _observed_order(old)), \
            (e1, e2)
        if v.witness is not None:
            check_witness(reference.trace, v.witness, e1, e2)
            check_witness(reference.trace, v.witness.events(), e1, e2)
            seen["cut" if cut_form else "listed"] += 1
        if v.cycle is not None:
            reference.assert_real_cycle(e1, e2, v.cycle)
        seen[v.verdict.name] += 1
        if v.attempts > 1:
            seen["retry"] += 1
    return seen


def _observed_order(outcome: Outcome) -> bool:
    """Whether the reference's greedy placed its witness's needed set in
    observed order: then every step took the latest remaining event,
    which is the replay placing them all."""
    verdict, witness, _ = outcome
    return verdict == "RACE" and witness[:-2] == sorted(witness[:-2])


def _check_races(trace: Trace, transitive_force: bool,
                 policy: str = "latest") -> Counter:
    """Vindicate every DC race of ``trace`` through the production path
    (one shared index, as the pipeline does) and compare."""
    reference = _Reference(trace, transitive_force)
    detector = DCDetector()
    detector.transitive_force = transitive_force
    races = detector.analyze(trace).races
    index = CutIndex(detector.graph, trace)
    vindications = [vindicate_race(detector.graph, trace, race, policy=policy,
                                   index=index) for race in races]
    return _assert_agree(reference, vindications, policy)


# ----------------------------------------------------------------------
# Litmus suite
# ----------------------------------------------------------------------
class TestLitmus:
    @pytest.mark.parametrize("transitive_force", [True, False])
    @pytest.mark.parametrize("policy", ["latest", "earliest"])
    def test_agrees(self, litmus_trace, transitive_force, policy):
        _check_races(litmus_trace, transitive_force, policy)

    @pytest.mark.parametrize("transitive_force", [True, False])
    @pytest.mark.parametrize("policy", ["latest", "earliest"])
    def test_late_child_agrees(self, transitive_force, policy):
        """Thread indices that differ from the first-event order, and a
        thread that never runs, change no outcome."""
        seen = _check_races(late_child(), transitive_force, policy)
        assert seen["RACE"] >= 5

    def test_suite_reaches_every_outcome(self):
        seen: Counter = Counter()
        for factory in LITMUS.values():
            for transitive_force in (True, False):
                seen += _check_races(factory(), transitive_force)
        assert seen["RACE"] and seen["NO_RACE"] and seen["UNKNOWN"], seen
        assert seen["retry"], seen


# ----------------------------------------------------------------------
# Workload analogs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scale", [2, 4])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_analog_agrees(name, scale):
    trace = execute(WORKLOADS[name](scale=scale), seed=7)
    reference = _Reference(trace)
    for vindicate_all in (False, True):
        report = Vindicator(vindicate_all=vindicate_all).run(trace)
        _assert_agree(reference, report.vindications)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_analog_scale_1_cut_witnesses(name):
    """The analogs at scale 1 too: the fast path fires exactly where the
    reference replays the observed order, and both checkers accept."""
    trace = execute(WORKLOADS[name](scale=1), seed=7)
    report = Vindicator(vindicate_all=True, check_witnesses=False).run(trace)
    _assert_agree(_Reference(trace), report.vindications)


# ----------------------------------------------------------------------
# Hypothesis-generated traces
# ----------------------------------------------------------------------
configs = st.builds(
    GeneratorConfig,
    threads=st.integers(2, 4),
    events=st.integers(8, 40),
    variables=st.integers(1, 3),
    locks=st.integers(1, 3),
    max_nesting=st.integers(1, 3),
    acquire_weight=st.sampled_from([0.25, 0.4]),
    release_weight=st.sampled_from([0.3, 0.35]),
    write_fraction=st.sampled_from([0.5, 0.7]),
    use_fork_join=st.booleans(),
    volatiles=st.integers(0, 1),
)


@SETTINGS
@given(config=configs, seed=st.integers(0, 10_000),
       transitive_force=st.booleans())
def test_random_traces_agree(config, seed, transitive_force):
    _check_races(random_trace(seed, config), transitive_force)


def test_random_traces_reach_both_witness_forms():
    """Every litmus witness is a cut; random traces with busy locks also
    reorder critical sections, so the fast path's test is seen both
    passing and failing."""
    config = GeneratorConfig(threads=3, events=40, locks=2, variables=1,
                             acquire_weight=0.4, release_weight=0.3,
                             write_fraction=0.7)
    seen: Counter = Counter()
    for seed in range(30, 40):
        seen += _check_races(random_trace(seed, config), True)
    assert seen["cut"] and seen["listed"], seen


@SETTINGS
@given(config=configs, seed=st.integers(0, 10_000),
       extra=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)),
                      max_size=6))
def test_construct_agrees_on_arbitrary_graphs(config, seed, extra):
    """The replay is exact for any graph, not only for the forward-only
    DC graph plus a race's constraints: extra edges in either direction
    (cycles included) must not separate it from the greedy."""
    trace = random_trace(seed, config)
    detector = DCDetector()
    races = detector.analyze(trace).races
    graph = detector.graph
    for src, dst in extra:
        if src != dst and max(src, dst) < len(trace):
            graph.add_edge(src, dst)
    for race in races:
        for policy in ("latest", "earliest"):
            e1, e2 = race.first, race.second
            witness, stats = construct_reordered_trace(
                graph, trace, e1, e2, policy=policy)
            old, old_stats = construct_reference.construct_reordered_trace(
                graph, trace, e1, e2, policy=policy)
            assert _eids(witness) == _eids(old), (e1, e2, policy)
            assert stats.attempts == old_stats.attempts
            # An extra edge may make an event after e1 or e2 in its
            # thread needed; that needed set is no cut, so the fast path
            # leaves it to the replay (after add_constraints it would
            # close a cycle through the pair and refute the race).
            observed = old is not None and _observed_order(
                ("RACE", _eids(old), old_stats.attempts)) and \
                _program_order_prefixes(trace, old)
            assert isinstance(witness, CutWitness) == (
                policy == "latest" and observed), (e1, e2, _eids(old))


def test_backward_edge_holds_the_replay():
    """Edge 1 -> 0 forces the later event first; no lock is involved,
    so only the graph can stop the replay."""
    trace = (TraceBuilder().wr(1, "a").wr(2, "b").wr(1, "x").wr(2, "x")
             .build())
    graph = ConstraintGraph(4)
    for src, dst in [(0, 2), (1, 3), (1, 0)]:
        graph.add_edge(src, dst)
    witness, stats = construct_reordered_trace(graph, trace, trace[2], trace[3])
    old, _ = construct_reference.construct_reordered_trace(
        graph, trace, trace[2], trace[3])
    assert _eids(witness) == _eids(old) == [1, 0, 2, 3]
    assert stats.replayed_events == 0


def _program_order_prefixes(trace: Trace, witness) -> bool:
    """Whether each thread's events in ``witness`` are its first ones,
    in program order."""
    count: Counter = Counter()
    for e in _listed(witness):
        count[e.tid] += 1
        if trace.local_time[e.eid] != count[e.tid]:
            return False
    return True


def _listed(witness):
    return witness if isinstance(witness, list) else witness.events()


def _eids(witness):
    return None if witness is None else [e.eid for e in _listed(witness)]


def _interleave(base: Trace, noise: Trace, rng: random.Random) -> Trace:
    """``base`` and ``noise`` merged in a random interleaving, each in
    its own order. The noise is renamed onto threads, variables and
    locks of its own, so it changes no verdict of ``base``'s races; it
    only moves them and adds unrelated ancestors."""
    offset = max(e.tid for e in base) + 1

    def rename(e: Event) -> Event:
        target = e.target
        if e.kind in (EventKind.FORK, EventKind.JOIN):
            target = target + offset
        elif target is not None:
            target = f"noise_{target}"
        return Event(0, e.tid + offset, e.kind, target, e.loc)

    left, right = list(base), [rename(e) for e in noise]
    merged: List[Event] = []
    while left or right:
        side = left if not right or (left and rng.random() < 0.5) else right
        merged.append(side.pop(0))
    return Trace.from_events(merged)


@SETTINGS
@given(name=st.sampled_from(sorted(LITMUS)), seed=st.integers(0, 10_000),
       transitive_force=st.booleans())
def test_interleaved_litmus_agrees(name, seed, transitive_force):
    noise = random_trace(seed, GeneratorConfig(threads=2, events=16))
    trace = _interleave(LITMUS[name](), noise, random.Random(seed))
    _check_races(trace, transitive_force)


def test_interleaved_litmus_reaches_every_outcome():
    """The interleaved corpus keeps NO_RACE, UNKNOWN and missing-release
    retries in play (so the hypothesis test above exercises them)."""
    seen: Counter = Counter()
    for name in sorted(LITMUS):
        for seed in range(3):
            noise = random_trace(seed, GeneratorConfig(threads=2, events=16))
            trace = _interleave(LITMUS[name](), noise, random.Random(seed))
            seen += _check_races(trace, transitive_force=False)
    assert seen["RACE"] and seen["NO_RACE"] and seen["UNKNOWN"], seen
    assert seen["retry"], seen
