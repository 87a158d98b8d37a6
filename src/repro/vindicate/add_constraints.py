"""ADDCONSTRAINTS (Algorithm 1, lines 11–23).

Given the constraint graph ``G`` and a DC-race ``(e1, e2)``, this step
adds the constraints a correctly reordered trace exposing the race must
satisfy:

* **consecutive-event constraints** — every predecessor of ``e1`` (resp.
  ``e2``) must also precede ``e2`` (resp. ``e1``), since the two events
  are to execute back to back;
* **lock-semantics (LS) constraints** — whenever two critical sections
  on one lock become partially ordered through an added edge, and both
  are (partially) needed before the race, the earlier section must
  complete before the later one begins: an edge from ``R(a)`` to
  ``A(r)``.

Constraint discovery iterates to convergence because each added edge may
order further critical sections. If the constraints form a cycle that
reaches the racing events, no correctly reordered trace exists and the
DC-race is refuted.

Per the paper's implementation notes, the search prunes redundant
acquire–release pairs using program order: among candidate acquires of
one thread and lock only the program-order-latest matters, and among
candidate releases only the earliest, since the other pairs' edges are
implied through program order.

Every reachability query goes to a :class:`~repro.graph.cuts.CutIndex`:
the candidate acquires and releases of one constraint edge come from
bisecting per-(thread, lock) local times against the ancestor and
descendant cuts of its endpoints, and the cycle search is handed only
the race cut's slice between the graph's backward edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.events import CODE_ACQUIRE, CODE_RELEASE, Event
from repro.core.trace import Trace
from repro.graph.constraint_graph import ConstraintGraph
from repro.graph.cuts import CutIndex

#: Per (thread index, lock index): the eid of the candidate acquire or
#: release of the LS search.
Candidates = Dict[Tuple[int, int], int]


@dataclass
class ConstraintResult:
    """Outcome of ADDCONSTRAINTS.

    Attributes:
        cycle: A constraint cycle reaching the race (None if acyclic);
            a non-None cycle refutes the DC-race.
        added_edges: Every edge added to the graph, in order, so the
            caller can remove them afterwards (the graph is shared across
            vindications of independent races).
        consecutive_edges: Number of consecutive-event constraints added.
        ls_edges: Number of lock-semantics constraints added (Table 3's
            "LS constraints added" metric).
        rounds: Convergence rounds of the do–while loop.
    """

    cycle: Optional[List[int]] = None
    added_edges: List[Tuple[int, int]] = field(default_factory=list)
    consecutive_edges: int = 0
    ls_edges: int = 0
    rounds: int = 0
    #: Cycle searches performed (one closes every convergence round).
    cycle_checks: int = 0

    @property
    def refuted(self) -> bool:
        return self.cycle is not None


def add_constraints(graph: ConstraintGraph, trace: Trace,
                    e1: Event, e2: Event,
                    use_window: bool = False,
                    index: Optional[CutIndex] = None) -> ConstraintResult:
    """Run ADDCONSTRAINTS for the DC-race ``(e1, e2)``, mutating ``graph``.

    The caller is responsible for removing ``result.added_edges`` once
    vindication of this race finishes.

    Args:
        use_window: Enable the paper's window optimisation (Section 6.1):
            the LS-constraint pair search only traverses events between
            the racing pair, expanding the window on the fly to cover
            every edge it adds. The constraints found are a subset of
            the unwindowed search's; soundness is unaffected (a RACE
            verdict is still gated by the witness checker), but a
            refutation can degrade to *don't know* when the refuting
            cycle involves critical sections outside the window (see
            ``litmus.wcp_deadlock``). On the workload corpora verdicts
            are unchanged (window ablation benchmark). The windowed sets
            come from the graph's own BFS.
        index: Cut index over ``graph`` answering the reachability
            queries (one is created when not supplied; callers
            vindicating many races should share one).
    """
    if index is None:
        index = CutIndex(graph, trace)
    # The tables must predate the race's edges, which are overlay edges.
    index.sync()
    result = ConstraintResult()
    worklist: List[Tuple[int, int]] = []
    window = [min(e1.eid, e2.eid), max(e1.eid, e2.eid)] if use_window else None

    def add(src: int, dst: int) -> bool:
        if src == dst or graph.has_edge(src, dst):
            return False
        graph.add_edge(src, dst)
        result.added_edges.append((src, dst))
        worklist.append((src, dst))
        if window is not None:
            window[0] = min(window[0], src, dst)
            window[1] = max(window[1], src, dst)
        return True

    # --- Consecutive-event constraints (lines 12–13) -------------------
    # In ascending eid order: the edges' order drives the LS fixpoint,
    # and must not depend on the graph's adjacency history.
    for src in sorted(graph.predecessors(e1.eid)):
        if add(src, e2.eid):
            result.consecutive_edges += 1
    for src in sorted(graph.predecessors(e2.eid)):
        if add(src, e1.eid):
            result.consecutive_edges += 1

    # --- LS constraint fixpoint (lines 14–22) ---------------------------
    roots = (e1.eid, e2.eid)
    changed = True
    while changed:
        changed = False
        result.rounds += 1
        in_race: Callable[[int], bool]
        if window is None:
            race_cut = index.ancestor_cut(roots)
            in_race = (lambda eid: eid in roots
                       or index.holds(race_cut, eid))
        else:
            bounds = (window[0], window[1])
            in_race = graph.ancestors(roots, include_roots=True,
                                      within=bounds).__contains__
        for src, snk in list(worklist):
            if window is None:
                acquires = index.latest_acquires(src)
                releases = index.earliest_releases(snk)
            else:
                acquires, releases = _windowed_candidates(
                    graph, trace, src, snk, bounds)
            for edge in _ls_pairs(graph, trace, acquires, releases,
                                  in_race, index):
                if add(*edge):
                    result.ls_edges += 1
                    changed = True
        result.cycle_checks += 1
        # Every cycle lies in the graph's backward-edge span, which
        # during a race covers only the race's own backward constraints:
        # only that slice of the race's ancestors is materialised.
        span = graph.backward_span()
        if span is None:
            continue
        region = index.ancestors_between(roots, *span)
        cycle = graph.find_cycle_reaching(set(roots), region=region)
        if cycle is not None:
            result.cycle = cycle
            return result
    return result


def _windowed_candidates(graph: ConstraintGraph, trace: Trace, src: int,
                         snk: int, bounds: Tuple[int, int]
                         ) -> Tuple[Candidates, Candidates]:
    """The LS candidates of ``(src, snk)`` inside the window: per
    (thread index, lock index), the latest acquire among ``src`` and its
    windowed ancestors, and the earliest release among ``snk`` and its
    windowed descendants."""
    codes, tix, tgt = trace.codes, trace.tix, trace.tgt
    acquires: Candidates = {}
    for eid in graph.ancestors([src], include_roots=True, within=bounds):
        if codes[eid] == CODE_ACQUIRE:
            key = (tix[eid], tgt[eid])
            best = acquires.get(key)
            if best is None or eid > best:
                acquires[key] = eid
    releases: Candidates = {}
    for eid in graph.descendants([snk], include_roots=True, within=bounds):
        if codes[eid] == CODE_RELEASE:
            key = (tix[eid], tgt[eid])
            best = releases.get(key)
            if best is None or eid < best:
                releases[key] = eid
    return acquires, releases


def _ls_pairs(graph: ConstraintGraph, trace: Trace, acquires: Candidates,
              releases: Candidates, in_race: Callable[[int], bool],
              index: CutIndex) -> List[Tuple[int, int]]:
    """LS edges implied by one constraint edge ``(src, snk)``.

    ``acquires`` holds, per (thread index, lock index), the latest
    acquire ``a`` with ``a ⇝ src`` (or ``a = src``); ``releases`` the
    earliest release ``r`` with ``snk ⇝ r`` (or ``r = snk``). Program
    order implies the other pairs' edges. ``a`` and ``r`` on the same
    lock are partially ordered through the edge; if ``r``'s critical
    section is needed before the race (``in_race(A(r))``: ``A(r)`` is a
    racing event or reaches one), the full ordering ``R(a) → A(r)`` is a
    necessary constraint.
    """
    edges: List[Tuple[int, int]] = []
    for (_, lock_a), a in acquires.items():
        release_of_a = trace.release_eid(a)
        if release_of_a is None:
            continue  # critical section never closes; cannot constrain it
        for (_, lock_r), r in releases.items():
            if lock_a != lock_r:
                continue
            acquire_of_r = trace.acquire_eid(r)
            if acquire_of_r == a:
                continue  # same critical section
            if not in_race(acquire_of_r):
                continue  # r's critical section is not needed for the race
            if graph.has_edge(release_of_a, acquire_of_r):
                continue
            if index.reaches(release_of_a, acquire_of_r):
                continue  # already fully ordered
            edges.append((release_of_a, acquire_of_r))
    return edges
