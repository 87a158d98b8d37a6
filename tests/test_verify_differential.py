"""Old-vs-new differential for the witness checker — the soundness gate.

``repro.vindicate.verify`` checks a witness in O(|witness|) over a
per-trace index. ``verify_reference`` is the trace-scanning checker it
replaced, kept as an oracle. Both must agree on every candidate
reordering: the same accept/reject, and on reject the same ``rule``
(EVENTS / PO / CA / LS), under the same precedence.

Candidates are real witnesses produced by VindicateRace (with witness
checking off, so the constructor's raw output is compared) and the
identity reordering, then mutated by one strategy per rule class:

* **PO** — drop or swap same-thread events, truncate a thread's prefix;
* **CA** — swap cross-thread conflicting accesses, drop a conflicting
  predecessor;
* **LS** — interleave two critical sections on one lock;
* **hard edges** — a child event before its fork, a join before the
  child's end, a swapped volatile write/read;
* **EVENTS** — an alien or duplicate event, a non-consecutive or a
  non-conflicting racing pair.

The mutants come from hypothesis-generated small traces and from a
seeded sweep over witnesses of real workload runs.

Cut witnesses (the observed order restricted to per-thread prefixes,
then the racing pair) are checked from the cut alone. They must get the
verdict and rule of the event list they stand for, under both
event-level checkers — unmutated, and mutated as cuts: one thread's
prefix moved, a critical section opened or closed, a fork dropped, a
child cut short of its join, or the racing pair renamed. Cut tuples are
indexed by thread index, so the pinned ``test_litmus.late_child``,
whose thread indices differ from its first-event order, is mutated
too.
"""

import random
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import verify_reference
from repro.core.events import Event, EventKind, conflicts
from repro.core.exceptions import MalformedReorderingError
from repro.core.trace import Trace
from repro.core.witness import CutWitness
from repro.runtime import execute
from repro.runtime.workloads import WORKLOADS
from repro.traces.gen import GeneratorConfig, random_trace
from repro.vindicate import verify
from repro.vindicate.vindicator import Vindicator
from test_litmus import late_child

Pair = Optional[Tuple[Event, Event]]
Candidate = Tuple[List[Event], Pair]
Mutator = Callable[[Trace, List[Event], Pair, random.Random],
                   Optional[Candidate]]

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

small_configs = st.builds(
    GeneratorConfig,
    threads=st.integers(2, 4),
    events=st.integers(6, 24),
    variables=st.integers(1, 3),
    locks=st.integers(1, 2),
    max_nesting=st.integers(1, 2),
    use_fork_join=st.booleans(),
    volatiles=st.integers(0, 2),
)


# ----------------------------------------------------------------------
# Outcomes
# ----------------------------------------------------------------------
def _outcome(check: Callable[..., None], *args: object) -> str:
    try:
        check(*args)
    except MalformedReorderingError as err:
        return err.rule
    return "OK"


def assert_agree(trace: Trace, witness: Sequence[Event], pair: Pair) -> str:
    """Both checkers give the same verdict; returns it."""
    old = _outcome(verify_reference.check_correct_reordering, trace, witness)
    new = _outcome(verify.check_correct_reordering, trace, witness)
    assert old == new, (
        f"check_correct_reordering: reference {old}, indexed {new} "
        f"on {list(witness)}")
    if pair is None:
        return new
    # The reference check_witness starts with the full reordering check,
    # so only an accepted reordering needs the (slow) reference re-run.
    if old == "OK":
        old = _outcome(verify_reference.check_witness, trace, witness, *pair)
    new = _outcome(verify.check_witness, trace, witness, *pair)
    assert old == new, (
        f"check_witness{pair}: reference {old}, indexed {new} "
        f"on {list(witness)}")
    return new


# ----------------------------------------------------------------------
# Mutation helpers
# ----------------------------------------------------------------------
def _positions_by_thread(witness: Sequence[Event]) -> Dict[object, List[int]]:
    by_tid: Dict[object, List[int]] = {}
    for i, e in enumerate(witness):
        by_tid.setdefault(e.tid, []).append(i)
    return by_tid


def _move(witness: List[Event], src: int, dst: int) -> List[Event]:
    """``witness`` with the event at ``src`` re-inserted at ``dst``
    (an index into the list after removal)."""
    out = list(witness)
    out.insert(dst, out.pop(src))
    return out


def _swap(witness: List[Event], i: int, j: int) -> List[Event]:
    out = list(witness)
    out[i], out[j] = out[j], out[i]
    return out


def _pairs(witness: Sequence[Event],
           related: Callable[[Event, Event], bool]) -> List[Tuple[int, int]]:
    """Position pairs ``i < j`` of related events; only events on one
    target can be related, so the scan is quadratic per target."""
    by_target: Dict[object, List[int]] = {}
    for i, e in enumerate(witness):
        if e.target is not None:
            by_target.setdefault((e.kind.is_volatile, e.target), []).append(i)
    return [(i, j) for group in by_target.values()
            for k, i in enumerate(group) for j in group[k + 1:]
            if related(witness[i], witness[j])]


def _volatile_rivals(a: Event, b: Event) -> bool:
    return (a.kind.is_volatile and b.kind.is_volatile and a.tid != b.tid
            and EventKind.VOLATILE_WRITE in (a.kind, b.kind))


def _lock_rivals(a: Event, b: Event) -> bool:
    return a.is_acquire and b.is_acquire and a.tid != b.tid


# ----------------------------------------------------------------------
# Mutators, one group per rule class
# ----------------------------------------------------------------------
def po_drop(trace, witness, pair, rng):
    inner = [p for ps in _positions_by_thread(witness).values()
             for p in ps[:-1]]
    if not inner:
        return None
    i = rng.choice(inner)
    return witness[:i] + witness[i + 1:], pair


def po_swap(trace, witness, pair, rng):
    threads = [ps for ps in _positions_by_thread(witness).values()
               if len(ps) > 1]
    if not threads:
        return None
    i, j = rng.sample(rng.choice(threads), 2)
    return _swap(witness, i, j), pair


def po_truncate(trace, witness, pair, rng):
    positions = rng.choice(list(_positions_by_thread(witness).values()))
    cut = set(positions[rng.randrange(len(positions)):])
    return [e for i, e in enumerate(witness) if i not in cut], pair


def _hoist(witness, pairs, rng):
    """Move the later event of a related pair just before the earlier
    one, preferring pairs where that keeps program order (no event of
    the moved thread in between), so the intended rule fires."""
    if not pairs:
        return None
    previous = {}  # position -> previous position of the same thread
    last: Dict[object, int] = {}
    for k, e in enumerate(witness):
        previous[k] = last.get(e.tid, -1)
        last[e.tid] = k
    safe = [(i, j) for i, j in pairs if previous[j] <= i]
    i, j = rng.choice(safe or pairs)
    return _move(witness, j, i)


def ca_swap(trace, witness, pair, rng):
    mutant = _hoist(witness, _pairs(witness, conflicts), rng)
    return None if mutant is None else (mutant, pair)


def ca_drop_predecessor(trace, witness, pair, rng):
    last = {ps[-1] for ps in _positions_by_thread(witness).values()}
    preds = sorted({i if witness[i].eid < witness[j].eid else j
                    for i, j in _pairs(witness, conflicts)})
    if not preds:
        return None
    # Prefer a thread's last included event, so PO does not fire first.
    i = rng.choice([p for p in preds if p in last] or preds)
    return witness[:i] + witness[i + 1:], pair


def ls_interleave(trace, witness, pair, rng):
    acquires = _pairs(witness, _lock_rivals)
    if not acquires:
        return None
    i, j = rng.choice(acquires)
    return _move(witness, j, i + 1), pair


def child_before_fork(trace, witness, pair, rng):
    by_tid = _positions_by_thread(witness)
    forks = [(i, by_tid[e.target][0]) for i, e in enumerate(witness)
             if e.kind is EventKind.FORK and e.target in by_tid]
    if not forks:
        return None
    fork, first_child = rng.choice(forks)
    return _move(witness, first_child, fork), pair


def join_before_child_end(trace, witness, pair, rng):
    by_tid = _positions_by_thread(witness)
    joins = [(i, by_tid[e.target][-1]) for i, e in enumerate(witness)
             if e.kind is EventKind.JOIN and e.target in by_tid]
    if not joins:
        return None
    join, last_child = rng.choice(joins)
    if rng.random() < 0.5:
        return _move(witness, join, last_child), pair
    # Or leave the join in place and drop the child's tail.
    return witness[:last_child] + witness[last_child + 1:], pair


def volatile_swap(trace, witness, pair, rng):
    mutant = _hoist(witness, _pairs(witness, _volatile_rivals), rng)
    return None if mutant is None else (mutant, pair)


def alien_event(trace, witness, pair, rng):
    if rng.random() < 0.5:
        alien = Event(len(trace) + rng.randrange(3), "alien",
                      EventKind.WRITE, "q")
    else:
        real = trace[rng.randrange(len(trace))]
        alien = Event(real.eid, real.tid, real.kind, ("not", real.target))
    out = list(witness)
    out.insert(rng.randrange(len(out) + 1), alien)
    return out, pair


def duplicate_event(trace, witness, pair, rng):
    if not witness:
        return None
    out = list(witness)
    out.insert(rng.randrange(len(out) + 1), rng.choice(witness))
    return out, pair


def non_consecutive_pair(trace, witness, pair, rng):
    if pair is None:
        return None
    if rng.random() < 0.5:
        return witness, (pair[1], pair[0])
    others = _pairs(witness, conflicts)
    if not others:
        return None
    i, j = rng.choice(others)
    return witness, (witness[i], witness[j])


def non_conflicting_pair(trace, witness, pair, rng):
    if len(witness) < 2:
        return None
    a, b = rng.sample(witness, 2)
    if conflicts(a, b):
        b = a
    return witness, (a, b)


MUTATORS: Dict[str, List[Mutator]] = {
    "PO": [po_drop, po_swap, po_truncate],
    "CA": [ca_swap, ca_drop_predecessor],
    "LS": [ls_interleave],
    "hard-edges": [child_before_fork, join_before_child_end, volatile_swap],
    "EVENTS": [alien_event, duplicate_event, non_consecutive_pair,
               non_conflicting_pair],
}

#: The rule each class is built to trip; the sweep must see it at least once.
TARGET_RULES = {"PO": {"PO"}, "CA": {"CA"}, "LS": {"LS"},
                "hard-edges": {"PO", "CA"}, "EVENTS": {"EVENTS"}}


# ----------------------------------------------------------------------
# Candidates
# ----------------------------------------------------------------------
def _candidates(trace: Trace, identity: bool = True) -> List[Candidate]:
    """Raw VindicateRace witnesses, plus (optionally) the identity
    reordering."""
    report = Vindicator(vindicate_all=True, check_witnesses=False).run(trace)
    found: List[Candidate] = [
        (v.witness.events(), (v.race.first, v.race.second))
        for v in report.vindications if v.witness is not None]
    if identity:
        events = trace.events
        adjacent = [(a, b) for a, b in zip(events, events[1:])
                    if conflicts(a, b)]
        found.append((list(trace), adjacent[0] if adjacent else None))
    return found


class TestSmallTraceMutants:
    @pytest.mark.parametrize("rule_class", sorted(MUTATORS))
    @SETTINGS
    @given(seed=st.integers(0, 10_000), config=small_configs,
           pick=st.integers(0, 2**32 - 1))
    def test_checkers_agree(self, rule_class, seed, config, pick):
        trace = random_trace(seed, config)
        rng = random.Random(pick)
        witness, pair = rng.choice(_candidates(trace))
        assert_agree(trace, witness, pair)
        mutant = rng.choice(MUTATORS[rule_class])(trace, witness, pair, rng)
        if mutant is not None:
            assert_agree(trace, *mutant)


#: Small real runs whose witnesses the sweep mutates: long enough to
#: carry forks, joins and nested locks, short enough that the reference
#: checker's quadratic CA diagnosis stays cheap.
SWEEP_RUNS = (("xalan", 0.3), ("avrora", 0.2), ("h2", 0.2), ("sunflow", 0.2))
#: The workloads have no volatiles, so the sweep adds seeded random
#: traces that do (with forks and joins too).
SWEEP_RANDOM = GeneratorConfig(threads=3, events=24, variables=2, locks=2,
                               volatiles=2, use_fork_join=True)
SWEEP_RANDOM_SEEDS = range(40)
SWEEP_MUTANTS_PER_CLASS = 100


@pytest.fixture(scope="module")
def sweep_pools() -> List[List[Tuple[Trace, List[Event], Pair]]]:
    """Two candidate pools — workload witnesses and random traces — so
    the sweep draws from each equally whatever their sizes."""
    workloads: List[Tuple[Trace, List[Event], Pair]] = []
    for name, scale in SWEEP_RUNS:
        trace = execute(WORKLOADS[name](scale=scale), seed=3)
        workloads.extend((trace, w, p)
                         for w, p in _candidates(trace, identity=False))
    randoms: List[Tuple[Trace, List[Event], Pair]] = []
    for seed in SWEEP_RANDOM_SEEDS:
        trace = random_trace(seed, SWEEP_RANDOM)
        randoms.extend((trace, w, p) for w, p in _candidates(trace))
    return [workloads, randoms]


class TestSweepMutants:
    def test_unmutated_candidates_agree(self, sweep_pools):
        for pool in sweep_pools:
            verdicts = Counter(assert_agree(*candidate) for candidate in pool)
            assert verdicts["OK"] == len(pool), verdicts

    @pytest.mark.parametrize("rule_class", sorted(MUTATORS))
    def test_checkers_agree(self, rule_class, sweep_pools):
        rng = random.Random(rule_class)
        verdicts: Counter = Counter()
        for k in range(SWEEP_MUTANTS_PER_CLASS):
            trace, witness, pair = rng.choice(sweep_pools[k % 2])
            mutant = rng.choice(MUTATORS[rule_class])(trace, witness, pair,
                                                      rng)
            if mutant is not None:
                verdicts[assert_agree(trace, *mutant)] += 1
        assert TARGET_RULES[rule_class] <= set(verdicts), verdicts


def test_xalan_scale_2_witnesses_accepted_by_both():
    trace = execute(WORKLOADS["xalan"](scale=2), seed=3)
    report = Vindicator(check_witnesses=False).run(trace)
    witnessed = [v for v in report.vindications if v.witness is not None]
    assert witnessed
    for v in witnessed:
        pair = (v.race.first, v.race.second)
        verify_reference.check_witness(trace, v.witness.events(), *pair)
        verify.check_witness(trace, v.witness, *pair)


# ----------------------------------------------------------------------
# Cut witnesses
# ----------------------------------------------------------------------
CutMutator = Callable[[Trace, CutWitness, random.Random],
                      Optional[Tuple[CutWitness, Pair]]]


def assert_cut_agree(trace: Trace, witness: CutWitness, pair: Pair) -> str:
    """The cut check gives the verdict that both event-level checkers
    give the event list the cut stands for; returns it."""
    listed = witness.events()
    old = assert_agree(trace, listed, pair)
    new = _outcome(verify.check_witness, trace, witness, *pair)
    assert old == new, (
        f"check_witness{pair}: event list {old}, cut {new} on {witness}")
    assert _outcome(verify.check_correct_reordering, trace, witness) == \
        _outcome(verify.check_correct_reordering, trace, listed), witness
    return new


def _with(witness: CutWitness, thread: int, count: int) -> CutWitness:
    cut = list(witness.cut)
    cut[thread] = count
    return CutWitness(witness.trace, cut, witness.first, witness.second)


def _pair_of(witness: CutWitness) -> Pair:
    return witness.first, witness.second


def cut_perturb(trace, witness, rng):
    """Move one thread's prefix end anywhere in the thread."""
    thread = rng.randrange(len(witness.cut))
    length = len(trace.thread_eids[thread])
    return _with(witness, thread, rng.randint(0, length)), _pair_of(witness)


def cut_section(trace, witness, rng):
    """End one thread's prefix right after one of its acquires (leaving
    the section open) or releases (closing it)."""
    locks = [e for e in trace if e.kind in (EventKind.ACQUIRE,
                                            EventKind.RELEASE)]
    if not locks:
        return None
    e = rng.choice(locks)
    return (_with(witness, trace.tid_index[e.tid], trace.local_time[e.eid]),
            _pair_of(witness))


def cut_drop_fork(trace, witness, rng):
    """End the parent's prefix just before a fork whose child runs."""
    included = {tid for tid, count in zip(trace.tid_names, witness.cut)
                if count}
    included.update((witness.first.tid, witness.second.tid))
    forks = [e for e in trace
             if e.kind is EventKind.FORK and e.target in included]
    if not forks:
        return None
    fork = rng.choice(forks)
    return (_with(witness, trace.tid_index[fork.tid],
                  trace.local_time[fork.eid] - 1), _pair_of(witness))


def cut_short_child(trace, witness, rng):
    """End a joined child's prefix one event short of its end."""
    joins = [e for e in trace if e.kind is EventKind.JOIN
             and trace.eids_of(e.target)]
    if not joins:
        return None
    child = trace.tid_index[rng.choice(joins).target]
    length = len(trace.thread_eids[child])
    return _with(witness, child, length - 1), _pair_of(witness)


def cut_rename_pair(trace, witness, rng):
    """Name the racing pair in reverse, two adjacent conflicting events
    (placed by the cut, so the pair is consecutive all the same), or
    two other events."""
    listed = witness.events()
    adjacent = [(a, b) for a, b in zip(listed, listed[1:]) if conflicts(a, b)]
    roll = rng.random()
    if roll < 0.3:
        return witness, (witness.second, witness.first)
    if roll < 0.6 and adjacent:
        return witness, rng.choice(adjacent)
    i = rng.randrange(len(listed))
    return witness, (listed[i], listed[min(i + 1, len(listed) - 1)])


CUT_MUTATORS: Dict[str, CutMutator] = {
    "prefix": cut_perturb,
    "section": cut_section,
    "fork": cut_drop_fork,
    "join": cut_short_child,
    "pair": cut_rename_pair,
}

#: The rules each cut mutator is seen to trip over the sweep.
CUT_TARGET_RULES = {"prefix": {"OK", "EVENTS", "PO", "CA"},
                    "section": {"LS"}, "fork": {"PO"}, "join": {"PO"},
                    "pair": {"OK", "EVENTS"}}


def _cut_witnesses(trace: Trace) -> List[CutWitness]:
    report = Vindicator(vindicate_all=True, check_witnesses=False).run(trace)
    return [v.witness for v in report.vindications
            if isinstance(v.witness, CutWitness)]


@pytest.fixture(scope="module")
def cut_pools() -> List[List[Tuple[Trace, CutWitness]]]:
    """Cut witnesses of the sweep's workload runs and random traces."""
    workloads = [(trace, w) for trace in (
        execute(WORKLOADS[name](scale=scale), seed=3)
        for name, scale in SWEEP_RUNS) for w in _cut_witnesses(trace)]
    randoms = [(trace, w) for trace in (
        random_trace(seed, SWEEP_RANDOM) for seed in SWEEP_RANDOM_SEEDS)
        for w in _cut_witnesses(trace)]
    return [workloads, randoms]


class TestCutWitnesses:
    def test_unmutated_cuts_agree(self, cut_pools):
        for pool in cut_pools:
            assert pool
            verdicts = Counter(assert_cut_agree(trace, w, _pair_of(w))
                               for trace, w in pool)
            assert verdicts["OK"] == len(pool), verdicts

    @pytest.mark.parametrize("strategy", sorted(CUT_MUTATORS))
    def test_cut_mutants_agree(self, strategy, cut_pools):
        rng = random.Random(strategy)
        verdicts: Counter = Counter()
        for k in range(SWEEP_MUTANTS_PER_CLASS):
            trace, witness = rng.choice(cut_pools[k % 2])
            mutant = CUT_MUTATORS[strategy](trace, witness, rng)
            if mutant is not None:
                verdicts[assert_cut_agree(trace, *mutant)] += 1
        assert CUT_TARGET_RULES[strategy] <= set(verdicts), verdicts

    @pytest.mark.parametrize("strategy", sorted(CUT_MUTATORS))
    def test_late_child_cut_mutants_agree(self, strategy):
        """On a trace whose thread indices differ from its first-event
        order, with a thread that never runs, every cut witness and 25
        mutants of each get the rule of their event lists."""
        trace = late_child()
        witnesses = _cut_witnesses(trace)
        assert len(witnesses) == 5
        rng = random.Random(strategy)
        verdicts: Counter = Counter()
        for witness in witnesses:
            assert assert_cut_agree(trace, witness, _pair_of(witness)) == "OK"
            for _ in range(25):
                mutant = CUT_MUTATORS[strategy](trace, witness, rng)
                if mutant is not None:
                    verdicts[assert_cut_agree(trace, *mutant)] += 1
        assert CUT_TARGET_RULES[strategy] <= set(verdicts), verdicts

    @SETTINGS
    @given(seed=st.integers(0, 10_000), config=small_configs,
           pick=st.integers(0, 2**32 - 1))
    def test_small_trace_cut_mutants_agree(self, seed, config, pick):
        trace = random_trace(seed, config)
        witnesses = _cut_witnesses(trace)
        if not witnesses:
            return
        rng = random.Random(pick)
        witness = rng.choice(witnesses)
        assert assert_cut_agree(trace, witness, _pair_of(witness)) == "OK"
        strategy = rng.choice(sorted(CUT_MUTATORS))
        mutant = CUT_MUTATORS[strategy](trace, witness, rng)
        if mutant is not None:
            assert_cut_agree(trace, *mutant)
