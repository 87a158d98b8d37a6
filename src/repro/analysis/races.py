"""Race records: dynamic races, static de-duplication, classification.

The paper distinguishes *dynamic* races — pairs of events in the trace —
from *statically distinct* races — unordered pairs of static source
locations (Table 1 reports both). A dynamic race additionally carries the
relations under which the pair was unordered, which classifies it as an
HB-race, a WCP-only race, or a DC-only race (Figure 6's three series).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.core.events import Event


class RaceClass(enum.Enum):
    """Classification of a dynamic race by the strongest relation that
    leaves the pair unordered (HB ⊆ WCP ⊆ DC as detectors)."""

    HB = "HB"            # unordered even by happens-before
    WCP_ONLY = "WCP-only"  # WCP-race that is not an HB-race
    DC_ONLY = "DC-only"   # DC-race that is not a WCP-race

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class DynamicRace:
    """A dynamic race: two conflicting events unordered by some relation.

    Attributes:
        first: The earlier event in ``<_tr`` order.
        second: The later event.
        relation: Name of the relation whose detector reported the pair
            (``"HB"``, ``"WCP"``, or ``"DC"``).
        race_class: Cross-analysis classification, filled in when the
            combined Vindicator pipeline runs all three analyses on the
            same trace; None when a detector ran alone.
    """

    first: Event
    second: Event
    relation: str
    race_class: Optional[RaceClass] = field(default=None, compare=False)

    def __post_init__(self):
        if self.first.eid >= self.second.eid:
            raise ValueError("DynamicRace events must be in trace order")

    @property
    def event_distance(self) -> int:
        """Distance apart in ``<_tr`` of the two conflicting events
        (Table 2 / Figure 6 metric)."""
        return self.second.eid - self.first.eid

    @property
    def static_key(self) -> FrozenSet[str]:
        """The statically distinct race this dynamic race instantiates:
        the unordered pair of source locations. Events without a ``loc``
        fall back to a thread-agnostic kind/variable label."""
        return frozenset((_loc_of(self.first), _loc_of(self.second)))

    def __str__(self) -> str:
        tag = f" [{self.race_class}]" if self.race_class else ""
        return (f"{self.relation}-race{tag}: {self.first} <-> {self.second} "
                f"(distance {self.event_distance})")


def _loc_of(e: Event) -> str:
    return e.loc if e.loc is not None else f"{e.kind.value}({e.target})"


def static_races(races: Iterable[DynamicRace]) -> Dict[FrozenSet[str], List[DynamicRace]]:
    """Group dynamic races into statically distinct races.

    Returns a mapping from static key (unordered location pair) to the
    dynamic instances, preserving first-seen order of the keys.
    """
    groups: Dict[FrozenSet[str], List[DynamicRace]] = {}
    for race in races:
        groups.setdefault(race.static_key, []).append(race)
    return groups


@dataclass
class RaceReport:
    """The result of running one detector over one trace.

    Attributes:
        relation: The detector's relation name.
        races: Dynamic races, in detection order.
        counters: Free-form analysis statistics (joins performed, graph
            edges added, fast-path hits, ...).
    """

    relation: str
    races: List[DynamicRace] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def dynamic_count(self) -> int:
        """Number of dynamic races (Table 1's parenthesised numbers)."""
        return len(self.races)

    @property
    def static_count(self) -> int:
        """Number of statically distinct races (Table 1's main numbers)."""
        return len(static_races(self.races))

    def by_class(self) -> Dict[RaceClass, List[DynamicRace]]:
        """Group this report's races by :class:`RaceClass` (races without a
        classification are omitted)."""
        out: Dict[RaceClass, List[DynamicRace]] = {}
        for race in self.races:
            if race.race_class is not None:
                out.setdefault(race.race_class, []).append(race)
        return out

    def __str__(self) -> str:
        return (f"{self.relation}: {self.static_count} static races "
                f"({self.dynamic_count} dynamic)")


def classify(pair_orderings: Tuple[bool, bool]) -> RaceClass:
    """Classify a DC-race given whether its pair is ordered by (HB, WCP∪PO).

    Args:
        pair_orderings: ``(hb_ordered, wcp_ordered)`` for the race's events.
    """
    hb_ordered, wcp_ordered = pair_orderings
    if not hb_ordered:
        return RaceClass.HB
    if not wcp_ordered:
        return RaceClass.WCP_ONLY
    return RaceClass.DC_ONLY
