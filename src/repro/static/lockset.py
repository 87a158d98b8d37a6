"""Set-based lockset and thread-locality pre-analysis (Eraser-style).

One linear pass over a trace classifies every shared variable into a
small lattice of verdicts:

* **thread-local** — accessed by a single thread;
* **read-shared** — accessed by several threads, but never written;
* **lock-protected** — some lock is held at *every* access (the
  intersection of the per-access locksets is non-empty);
* **race-candidate** — none of the above.

The first three verdicts are *sound exclusions* for predictive race
detection, not just for HB detection:

* thread-local / read-shared variables admit no conflicting event pair
  at all (Section 2.1's ``e1 ≍ e2`` needs two threads and a write), and
  a reordering cannot invent events, so no correct reordering of the
  trace exhibits a race on them;
* if every access to ``x`` holds lock ``m``, then in *any* correct
  reordering two conflicting accesses to ``x`` sit in distinct critical
  sections on ``m``; lock semantics (Definition 2.1's LS rule) keeps
  those sections disjoint, so the accesses can never be adjacent — no
  predictable race. This is the set-based insight of Roemer & Bond's
  SPD and SmartTrack, transplanted to the offline setting.

Note the deliberate asymmetry with classic Eraser: Eraser's
"initialisation" and "shared read-after-write-exclusive" states excuse
unsynchronised writes that *can* be predictable races, so this pass
does not implement them — the verdicts here over-approximate race
candidates, which is exactly what makes them usable as an independent
sanitizer: every race any detector reports must be on a race-candidate
variable (:func:`cross_check`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
)

from repro import obs
from repro.core.events import Event, EventKind, Target, Tid

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from repro.analysis.races import DynamicRace


class VariableVerdict(enum.Enum):
    """Per-variable classification, strongest exclusion first."""

    THREAD_LOCAL = "thread-local"
    READ_SHARED = "read-shared"
    LOCK_PROTECTED = "lock-protected"
    RACE_CANDIDATE = "race-candidate"

    def __str__(self) -> str:
        return self.value

    @property
    def can_race(self) -> bool:
        """Whether a variable with this verdict may have a predictable race."""
        return self is VariableVerdict.RACE_CANDIDATE


@dataclass
class VariableInfo:
    """What the pass learned about one variable."""

    verdict: VariableVerdict
    #: Threads that accessed the variable.
    threads: FrozenSet[Tid]
    #: Locks held at every access (the lockset intersection); empty
    #: unless the verdict is LOCK_PROTECTED (or the variable is also
    #: thread-local/read-shared and happened to be protected).
    protected_by: FrozenSet[Target]
    reads: int = 0
    writes: int = 0

    def __str__(self) -> str:
        extra = ""
        if self.protected_by:
            locks = ", ".join(sorted(map(str, self.protected_by)))
            extra = f" by {{{locks}}}"
        return (f"{self.verdict}{extra} ({len(self.threads)} threads, "
                f"{self.reads} rd / {self.writes} wr)")


@dataclass
class LocksetResult:
    """The pre-analysis verdicts for one trace."""

    variables: Dict[Target, VariableInfo] = field(default_factory=dict)

    @property
    def race_candidates(self) -> FrozenSet[Target]:
        """Variables that may participate in a (predictable) race — the
        sanitizer's over-approximation of every detector's race set."""
        return frozenset(
            var for var, info in self.variables.items()
            if info.verdict.can_race)

    def verdict_of(self, var: Target) -> VariableVerdict:
        """The verdict for ``var`` (unseen variables are thread-local:
        they have no accesses at all)."""
        info = self.variables.get(var)
        return info.verdict if info else VariableVerdict.THREAD_LOCAL

    def counts(self) -> Dict[VariableVerdict, int]:
        """Number of variables per verdict (every verdict is a key)."""
        out = {verdict: 0 for verdict in VariableVerdict}
        for info in self.variables.values():
            out[info.verdict] += 1
        return out

    def summary(self) -> str:
        """One line: ``42 variables: 30 thread-local, ...``."""
        counts = self.counts()
        parts = [f"{counts[v]} {v}" for v in VariableVerdict if counts[v]]
        return f"{len(self.variables)} variables: " + ", ".join(parts)


class _VarState:
    """Mutable per-variable accumulator for the linear pass."""

    __slots__ = ("tids", "lockset", "reads", "writes", "candidate")

    def __init__(self) -> None:
        self.tids: Set[Tid] = set()
        self.lockset: Optional[Set[Target]] = None  # None = no access yet
        self.reads = 0
        self.writes = 0
        #: Sticky fast-exit flag: multi-threaded, written, lockset empty.
        self.candidate = False


def analyze_locksets(events: Iterable[Event]) -> LocksetResult:
    """Run the set-based pre-analysis over a trace (or any event iterable).

    One linear pass; per access the work is O(held locks) set
    intersection, with a sticky early-out once a variable is already a
    confirmed race candidate.
    """
    with obs.span("static.lockset") as sp:
        result = _scan(events)
        sp.annotate("variables", len(result.variables))
    reg = obs.metrics()
    if reg.enabled:
        reg.add("lockset.variables", len(result.variables))
        for verdict, count in result.counts().items():
            if count:
                reg.add(f"lockset.verdict.{verdict.name.lower()}", count)
    return result


def _scan(events: Iterable[Event]) -> LocksetResult:
    states: Dict[Target, _VarState] = {}
    held: Dict[Tid, List[Target]] = {}
    # The loop is the whole cost of the pass; bind the hot enum members
    # once rather than paying a property call per event.
    READ, WRITE = EventKind.READ, EventKind.WRITE
    ACQUIRE, RELEASE = EventKind.ACQUIRE, EventKind.RELEASE
    for e in events:
        kind = e.kind
        if kind is READ or kind is WRITE:
            state = states.get(e.target)
            if state is None:
                state = states[e.target] = _VarState()
            if kind is WRITE:
                state.writes += 1
            else:
                state.reads += 1
            state.tids.add(e.tid)
            if state.candidate:
                continue
            locks = held.get(e.tid)
            if state.lockset is None:
                state.lockset = set(locks) if locks else set()
            elif state.lockset:
                state.lockset.intersection_update(locks or ())
            if (not state.lockset and state.writes
                    and len(state.tids) > 1):
                state.candidate = True
        elif kind is ACQUIRE:
            held.setdefault(e.tid, []).append(e.target)
        elif kind is RELEASE:
            stack = held.get(e.tid)
            if stack and e.target in stack:
                stack.remove(e.target)

    result = LocksetResult()
    for var, state in states.items():
        if len(state.tids) <= 1:
            verdict = VariableVerdict.THREAD_LOCAL
        elif not state.writes:
            verdict = VariableVerdict.READ_SHARED
        elif state.lockset:
            verdict = VariableVerdict.LOCK_PROTECTED
        else:
            verdict = VariableVerdict.RACE_CANDIDATE
        result.variables[var] = VariableInfo(
            verdict=verdict,
            threads=frozenset(state.tids),
            protected_by=frozenset(state.lockset or ()),
            reads=state.reads,
            writes=state.writes,
        )
    return result


def cross_check(races: Sequence["DynamicRace"],
                result: LocksetResult) -> List[str]:
    """Sanitize detector output against the lockset over-approximation.

    Every race any detector reports must be on a race-candidate
    variable; a violation means either the detector or the pre-analysis
    is wrong — a structural regression signal that does not depend on
    golden outputs. Returns human-readable violation descriptions
    (empty = consistent).
    """
    violations: List[str] = []
    for race in races:
        var = race.second.target
        verdict = result.verdict_of(var)
        if not verdict.can_race:
            violations.append(
                f"{race}: variable {var!r} is {verdict}, so no predictable "
                "race on it should exist")
    return violations
