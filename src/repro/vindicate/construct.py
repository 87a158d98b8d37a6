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

from repro.core.events import Event, Target
from repro.core.exceptions import VindicationError
from repro.core.trace import Trace
from repro.graph.constraint_graph import ConstraintGraph
from repro.graph.cuts import CutIndex

#: Greedy tie-break policies for ATTEMPTTOCONSTRUCTTRACE.
POLICIES = ("latest", "earliest", "random")


@dataclass
class ConstructionStats:
    """Statistics from one CONSTRUCTREORDEREDTRACE run.

    ``attempts`` is the number of ATTEMPTTOCONSTRUCTTRACE calls (1 means
    no missing-release retry was needed); ``extra_releases`` counts the
    releases pulled into ``R`` by retries. ``placed_events`` is the
    witness length and ``replayed_events`` how many of its events the
    observed-order replay placed (both 0 without a witness).
    """

    attempts: int = 0
    extra_releases: int = 0
    placed_events: int = 0
    replayed_events: int = 0


class _MissingRelease:
    """Sentinel returned by an attempt that needs one more release."""

    def __init__(self, release: Event):
        self.release = release


def construct_reordered_trace(
    graph: ConstraintGraph,
    trace: Trace,
    e1: Event,
    e2: Event,
    policy: str = "latest",
    seed: int = 0,
    index: Optional[CutIndex] = None,
) -> Tuple[Optional[List[Event]], ConstructionStats]:
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
    rng = random.Random(seed)
    needed: Set[int] = index.ancestors([e1.eid, e2.eid])
    needed.discard(e1.eid)
    needed.discard(e2.eid)
    stats = ConstructionStats()
    max_retries = len(trace) + 1
    for _ in range(max_retries):
        stats.attempts += 1
        outcome, replayed = _attempt(graph, trace, needed, e1, e2,
                                     policy, rng)
        if isinstance(outcome, _MissingRelease):
            release = outcome.release
            stats.extra_releases += 1
            needed.add(release.eid)
            needed.update(index.ancestors([release.eid]))
            needed.discard(e1.eid)
            needed.discard(e2.eid)
            continue
        if outcome is not None:
            stats.placed_events = len(outcome)
            stats.replayed_events = replayed
        return outcome, stats
    raise VindicationError(
        "missing-release retries exceeded the trace length; "
        "this contradicts the algorithm's termination bound")


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
    outcome and the number of events the observed-order replay placed."""
    state = _BackwardState(trace)
    reversed_trace: List[Event] = []
    for seed_event in (e2, e1):
        check = state.ls_check(seed_event)
        if check is not _OK:
            return None, 0
        state.place(seed_event)
        reversed_trace.append(seed_event)

    events = trace.events
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
            event = events[eid]
            if enclosing[eid]:
                if state.ls_check(event) is not _OK:
                    break
                state.place(event)
            reversed_trace.append(event)
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
        chosen: Optional[Event] = None
        missing: List[Event] = []
        for eid in _in_policy_order(ready, policy, rng):
            event = events[eid]
            check = state.ls_check(event)
            if check is _OK:
                chosen = event
                break
            if isinstance(check, Event):
                missing.append(check)
        if chosen is not None:
            state.place(chosen)
            reversed_trace.append(chosen)
            remaining.discard(chosen.eid)
            ready.discard(chosen.eid)
            for pred in graph.predecessor_set(chosen.eid):
                if pred in remaining:
                    blocking[pred] -= 1
                    if blocking[pred] == 0:
                        ready.add(pred)
            continue
        # No legal event: look for a missing release to pull in (line 38).
        for release in sorted(missing, key=lambda r: -r.eid):
            if release.eid in needed or release.eid in (e1.eid, e2.eid):
                continue
            if state.ls_check(release) is _OK:
                return _MissingRelease(release), replayed
        return None, replayed  # construction failed (line 40)
    return list(reversed(reversed_trace)), replayed


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
    """Lock-semantics state for backward (prepend-only) construction."""

    def __init__(self, trace: Trace):
        self.trace = trace
        #: lock -> acquire eid of the section open at the front.
        self.open_front: Dict[Target, int] = {}
        #: lock -> acquire eids of sections with placed events.
        self.cs_below: Dict[Target, Set[int]] = {}

    def ls_check(self, event: Event):
        """Can ``event`` be prepended? Returns ``_OK``, ``None`` for an
        LS violation, or the missing release :class:`Event` whose
        presence would make the prepend possible later."""
        trace = self.trace
        for acq_eid in trace.enclosing_acquires[event.eid]:
            lock = trace.events[acq_eid].target
            front = self.open_front.get(lock)
            if front == acq_eid:
                continue  # continuing the section already open at the front
            if front is not None:
                return None  # a different section on this lock is open
            release = trace.release_of(trace.events[acq_eid])
            if release is not None and event.eid == release.eid:
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

    def place(self, event: Event) -> None:
        """Update state after prepending ``event`` (must be LS-checked)."""
        trace = self.trace
        for acq_eid in trace.enclosing_acquires[event.eid]:
            lock = trace.events[acq_eid].target
            self.cs_below.setdefault(lock, set()).add(acq_eid)
            if event.eid == acq_eid:
                # The section's acquire completes it at the front.
                if self.open_front.get(lock) == acq_eid:
                    del self.open_front[lock]
            else:
                self.open_front[lock] = acq_eid
