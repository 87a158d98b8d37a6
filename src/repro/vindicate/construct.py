"""CONSTRUCTREORDEREDTRACE / ATTEMPTTOCONSTRUCTTRACE (Algorithm 1,
lines 24–44).

Builds a correctly reordered witness trace *backwards*: starting from
``⟨e1, e2⟩``, it repeatedly prepends an event whose graph successors are
already placed and whose placement respects lock semantics. The greedy
choice among legal events is the one **latest in observed-trace order** —
the paper's key insight being that the original critical-section order is
the most likely to succeed (Section 5.3); alternative policies are
provided for the ablation study.

Under the ``latest`` policy an attempt first *replays the observed
order*: it walks the needed set from its latest event down and places
each event directly while the event has no unplaced graph successor and
passes the lock-semantics check. The greedy picks the latest ready,
LS-legal event, and the latest remaining event is always the latest
ready one when it is ready, so the replay is exactly a prefix of the
greedy's run. With every later needed event placed, an event has an
unplaced successor only through a backward edge (``dst < src``) into
the needed set, and the graph keeps those edges, so the replay reads no
adjacency. At the first event that fails either test the attempt builds
the greedy's ready set for what remains and continues from there. When
the witness is the observed order, no ready set is built.

Before any of that, a ``latest`` attempt tests whether the replay would
place the whole needed set, which is a cut: the race's ancestors, plus
each retry's release and its ancestors. If so it returns the witness as
that cut (:class:`~repro.core.witness.CutWitness`) without listing its
events. The replay places every event exactly when no backward edge has
both ends in the cut and every critical section left open by the cut
(those of ``e1`` and ``e2`` included) is its lock's latest acquire in
the cut (``docs/ALGORITHMS.md``, "Cut witnesses"). That takes, per
open section, one bisection per thread that takes its lock, so the fast
path costs O(T²) per race for T threads, whatever the cut's size.
Everything else gets today's replay and greedy, and an explicit list
(:class:`~repro.core.witness.ListedWitness`).

Lock-semantics bookkeeping for backward construction:

* ``open_front[m]`` — the critical section on ``m`` whose release or
  interior events are placed but whose acquire is still missing; while a
  section is open at the front, no other section on ``m`` may place
  events.
* ``cs_below[m]`` — critical sections on ``m`` with at least one placed
  event. Prepending an event of a section whose release is *not* going
  to appear (it is not in the needed set ``R``) is only allowed when no
  other section on ``m`` has placed events; otherwise the section's
  release is *missing* and is returned to the caller, which extends
  ``R`` and retries (lines 28–30, "Retrying construction").
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.core.events import CODE_RELEASE, Event
from repro.core.exceptions import VindicationError
from repro.core.trace import Trace
from repro.core.witness import CutWitness, ListedWitness, Witness
from repro.graph.constraint_graph import ConstraintGraph
from repro.graph.cuts import Cut, CutIndex

#: Greedy tie-break policies for ATTEMPTTOCONSTRUCTTRACE.
POLICIES = ("latest", "earliest", "random")


@dataclass
class ConstructionStats:
    """Statistics from one CONSTRUCTREORDEREDTRACE run.

    ``attempts`` is the number of ATTEMPTTOCONSTRUCTTRACE calls (1 means
    no missing-release retry was needed); ``extra_releases`` counts the
    releases pulled into ``R`` by retries. ``placed_events`` is the
    witness length and ``replayed_events`` how many of its events the
    observed-order replay placed (both 0 without a witness); a cut
    witness counts as replayed in full.
    """

    attempts: int = 0
    extra_releases: int = 0
    placed_events: int = 0
    replayed_events: int = 0


class _MissingRelease:
    """Sentinel returned by an attempt that needs one more release (its
    eid)."""

    def __init__(self, release: int):
        self.release = release


def construct_reordered_trace(
    graph: ConstraintGraph,
    trace: Trace,
    e1: Event,
    e2: Event,
    policy: str = "latest",
    seed: int = 0,
    index: Optional[CutIndex] = None,
) -> Tuple[Optional[Witness], ConstructionStats]:
    """Try to build a correctly reordered trace with ``e1, e2`` at the
    end, consecutive. Returns ``(witness, stats)`` with ``witness`` None
    on failure (the algorithm is greedy and incomplete, so failure does
    not refute the race). ``index`` optionally supplies the shared cut
    index over ``graph``; the needed set is its race cut, read as
    per-thread eid slices."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    if index is None:
        index = CutIndex(graph, trace)
    stats = ConstructionStats()
    rng = random.Random(seed)
    # The needed set is kept as a cut (the pair included) for the fast
    # path, and listed only when an attempt has to run.
    cut = index.ancestor_cut((e1.eid, e2.eid))
    needed: Optional[Set[int]] = None
    max_retries = len(trace) + 1
    for _ in range(max_retries):
        stats.attempts += 1
        if policy == "latest":
            needed_cut = _without_pair(index, cut, e1, e2)
            if needed_cut is not None and _replays_whole_cut(
                    graph, trace, index, needed_cut, e1, e2):
                stats.replayed_events = sum(needed_cut)
                stats.placed_events = stats.replayed_events + 2
                return CutWitness(trace, needed_cut, e1, e2), stats
        if needed is None:
            needed = index.cut_events(cut)
            needed.discard(e1.eid)
            needed.discard(e2.eid)
        outcome, replayed = _attempt(graph, trace, needed, e1, e2,
                                     policy, rng)
        if isinstance(outcome, _MissingRelease):
            release = outcome.release
            stats.extra_releases += 1
            release_cut = list(index.ancestor_cut((release,)))
            needed.add(release)
            needed.update(index.cut_events(release_cut))
            needed.discard(e1.eid)
            needed.discard(e2.eid)
            t = trace.tix[release]
            release_cut[t] = max(release_cut[t], trace.local_time[release])
            cut = tuple(map(max, cut, release_cut))
            continue
        if outcome is None:
            return None, stats
        stats.placed_events = len(outcome)
        stats.replayed_events = replayed
        return ListedWitness(outcome), stats
    raise VindicationError(
        "missing-release retries exceeded the trace length; "
        "this contradicts the algorithm's termination bound")


def _without_pair(index: CutIndex, cut: Cut, e1: Event,
                  e2: Event) -> Optional[Cut]:
    """The needed set as a cut: the race's ancestor ``cut`` less ``e1``
    and ``e2``, which the race's constraints can make ancestors of each
    other. None when it is no cut, because an event after ``e1`` or
    ``e2`` in its thread is needed too."""
    needed = list(cut)
    trace = index.trace
    for e in (e1, e2):
        if index.holds(cut, e.eid):
            t = trace.tix[e.eid]
            local = trace.local_time[e.eid]
            if needed[t] > local:
                return None
            needed[t] = local - 1
    return tuple(needed)


def _replays_whole_cut(graph: ConstraintGraph, trace: Trace,
                       index: CutIndex, cut: Cut, e1: Event,
                       e2: Event) -> bool:
    """Whether the observed-order replay would place every event of the
    needed ``cut``: no backward edge has both ends in it, and every
    section it leaves open is its lock's latest acquire in it.

    The pair must be accesses, so that the witness's open sections are
    the cut's own."""
    if not (e1.is_access and e2.is_access):
        return False
    holds = index.holds
    for src, dst in graph.backward_edges():
        if holds(cut, src) and holds(cut, dst):
            return False
    codes, enclosing, tgt = trace.codes, trace.enclosing_acquires, trace.tgt
    for t in range(len(cut)):
        last = index.last_event(cut, t)
        if last < 0:
            continue
        closed = trace.acquire_eid(last) \
            if codes[last] == CODE_RELEASE else -1
        for acquire in enclosing[last]:
            if acquire != closed and \
                    index.last_acquire(cut, tgt[acquire]) != acquire:
                return False
    return True


def _attempt(
    graph: ConstraintGraph,
    trace: Trace,
    needed: Set[int],
    e1: Event,
    e2: Event,
    policy: str,
    rng: random.Random,
) -> Tuple[Union[List[Event], _MissingRelease, None], int]:
    """One ATTEMPTTOCONSTRUCTTRACE pass (lines 32–44). Returns the
    outcome and the number of events the observed-order replay placed.
    The pass places event ids; the witness's events are built last."""
    state = _BackwardState(trace)
    reversed_trace: List[int] = []
    for seed_eid in (e2.eid, e1.eid):
        if state.ls_check(seed_eid) is not _OK:
            return None, 0
        state.place(seed_eid)
        reversed_trace.append(seed_eid)

    replayed = 0
    if policy == "latest":
        # Observed-order replay: every needed event above ``eid`` is
        # placed, so ``eid`` is ready unless a backward edge leads from
        # it to a needed event.
        held_back = {src for src, dst in graph.backward_edges()
                     if dst in needed}
        enclosing = trace.enclosing_acquires
        order = sorted(needed, reverse=True)
        for eid in order:
            if eid in held_back:
                break
            if enclosing[eid]:
                if state.ls_check(eid) is not _OK:
                    break
                state.place(eid)
            reversed_trace.append(eid)
            replayed += 1
        remaining = set(order[replayed:])
    else:
        remaining = set(needed)

    # Kahn-style backward topological construction: an event is
    # *graph-legal* when none of its graph successors is still unplaced.
    blocking: Dict[int, int] = {}
    ready: Set[int] = set()
    for eid in remaining:
        count = sum(1 for succ in graph.successor_set(eid) if succ in remaining)
        blocking[eid] = count
        if count == 0:
            ready.add(eid)
    while remaining:
        chosen = -1
        missing: List[int] = []
        for eid in _in_policy_order(ready, policy, rng):
            check = state.ls_check(eid)
            if check is _OK:
                chosen = eid
                break
            if check is not None:
                missing.append(check)
        if chosen >= 0:
            state.place(chosen)
            reversed_trace.append(chosen)
            remaining.discard(chosen)
            ready.discard(chosen)
            for pred in graph.predecessor_set(chosen):
                if pred in remaining:
                    blocking[pred] -= 1
                    if blocking[pred] == 0:
                        ready.add(pred)
            continue
        # No legal event: look for a missing release to pull in (line 38).
        for release in sorted(missing, reverse=True):
            if release in needed or release in (e1.eid, e2.eid):
                continue
            if state.ls_check(release) is _OK:
                return _MissingRelease(release), replayed
        return None, replayed  # construction failed (line 40)
    events = trace.events
    return [events[eid] for eid in reversed(reversed_trace)], replayed


def _in_policy_order(ready: Set[int], policy: str, rng: random.Random) -> List[int]:
    """The ready set in the order the greedy policy prefers."""
    if policy == "latest":
        return sorted(ready, reverse=True)
    if policy == "earliest":
        return sorted(ready)
    shuffled = list(ready)
    rng.shuffle(shuffled)
    return shuffled


_OK = object()


class _BackwardState:
    """Lock-semantics state for backward (prepend-only) construction,
    over event ids and lock indices."""

    def __init__(self, trace: Trace):
        self.trace = trace
        #: lock -> acquire eid of the section open at the front.
        self.open_front: Dict[int, int] = {}
        #: lock -> acquire eids of sections with placed events.
        self.cs_below: Dict[int, Set[int]] = {}

    def ls_check(self, eid: int) -> object:
        """Can event ``eid`` be prepended? Returns ``_OK``, ``None`` for
        an LS violation, or the eid of the missing release whose
        presence would make the prepend possible later."""
        trace = self.trace
        tgt = trace.tgt
        for acq_eid in trace.enclosing_acquires[eid]:
            lock = tgt[acq_eid]
            front = self.open_front.get(lock)
            if front == acq_eid:
                continue  # continuing the section already open at the front
            if front is not None:
                return None  # a different section on this lock is open
            release = trace.release_eid(acq_eid)
            if release is not None and eid == release:
                continue  # prepending the release opens the section cleanly
            # The event starts a section whose release will not appear
            # below it; only fine if no other section on this lock has
            # placed events (they would overlap the unclosed section).
            others = self.cs_below.get(lock, set()) - {acq_eid}
            if others:
                if release is None:
                    return None
                return release  # the missing release (line 38)
        return _OK

    def place(self, eid: int) -> None:
        """Update state after prepending event ``eid`` (must be
        LS-checked)."""
        tgt = self.trace.tgt
        for acq_eid in self.trace.enclosing_acquires[eid]:
            lock = tgt[acq_eid]
            self.cs_below.setdefault(lock, set()).add(acq_eid)
            if eid == acq_eid:
                # The section's acquire completes it at the front.
                if self.open_front.get(lock) == acq_eid:
                    del self.open_front[lock]
            else:
                self.open_front[lock] = acq_eid
