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
from typing import (TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional,
                    Tuple, Union)

from repro.core.events import Event, EventKind, Target, Tid

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.trace import EventView


class RaceClass(enum.Enum):
    """Classification of a dynamic race by the strongest relation that
    leaves the pair unordered (HB ⊆ WCP ⊆ DC as detectors)."""

    HB = "HB"            # unordered even by happens-before
    WCP_ONLY = "WCP-only"  # WCP-race that is not an HB-race
    DC_ONLY = "DC-only"   # DC-race that is not a WCP-race

    def __str__(self) -> str:
        return self.value


class _Pair:
    """The events of a race built from its two :class:`Event` objects,
    read like a trace's :class:`~repro.core.trace.EventView`."""

    __slots__ = ("_first", "_second")

    def __init__(self, first: Event, second: Event) -> None:
        self._first = first
        self._second = second

    def __getitem__(self, eid: int) -> Event:
        return self._first if eid == self._first.eid else self._second

    def fields(self, eid: int) -> Tuple[Tid, EventKind, Optional[Target],
                                        Optional[str]]:
        e = self[eid]
        return e.tid, e.kind, e.target, e.loc


class DynamicRace:
    """A dynamic race: two conflicting events unordered by some relation.

    A race keeps its two events' ids and reads the events from their
    trace when asked: :meth:`between` builds one over a trace's
    :class:`~repro.core.trace.EventView` (the production detectors do),
    ``DynamicRace(first=e1, second=e2, relation=...)`` one over two given
    events. Races compare by their events and relation, like the frozen
    record they replace.

    Attributes:
        first: The earlier event in ``<_tr`` order (built when read).
        second: The later event.
        first_eid, second_eid: Their event ids.
        relation: Name of the relation whose detector reported the pair
            (``"HB"``, ``"WCP"``, or ``"DC"``).
        race_class: Cross-analysis classification, filled in when the
            combined Vindicator pipeline runs all three analyses on the
            same trace; None when a detector ran alone.
        events: Where the events are read from: the trace's view, or the
            two given events.
    """

    __slots__ = ("first_eid", "second_eid", "relation", "race_class", "events")

    def __init__(self, first: Event, second: Event, relation: str,
                 race_class: Optional[RaceClass] = None) -> None:
        self._set(first.eid, second.eid, relation, race_class,
                  _Pair(first, second))

    @classmethod
    def between(cls, events: "EventView", first: int, second: int,
                relation: str) -> "DynamicRace":
        """The race between events ``first`` and ``second`` (eids) of
        the trace whose view is ``events``."""
        race = cls.__new__(cls)
        race._set(first, second, relation, None, events)
        return race

    def _set(self, first: int, second: int, relation: str,
             race_class: Optional[RaceClass],
             events: "Union[EventView, _Pair]") -> None:
        if first >= second:
            raise ValueError("DynamicRace events must be in trace order")
        self.first_eid = first
        self.second_eid = second
        self.relation = relation
        self.race_class = race_class
        self.events = events

    def with_class(self, race_class: RaceClass) -> "DynamicRace":
        """This race classified as ``race_class``."""
        race = DynamicRace.__new__(DynamicRace)
        race._set(self.first_eid, self.second_eid, self.relation, race_class,
                  self.events)
        return race

    @property
    def first(self) -> Event:
        return self.events[self.first_eid]

    @property
    def second(self) -> Event:
        return self.events[self.second_eid]

    @property
    def event_distance(self) -> int:
        """Distance apart in ``<_tr`` of the two conflicting events
        (Table 2 / Figure 6 metric)."""
        return self.second_eid - self.first_eid

    @property
    def static_key(self) -> FrozenSet[str]:
        """The statically distinct race this dynamic race instantiates:
        the unordered pair of source locations. Events without a ``loc``
        fall back to a thread-agnostic kind/variable label."""
        return frozenset((self._site(self.first_eid),
                          self._site(self.second_eid)))

    def _site(self, eid: int) -> str:
        _, kind, target, loc = self.events.fields(eid)
        return loc if loc is not None else f"{kind.value}({target})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DynamicRace):
            return NotImplemented
        if (self.first_eid, self.second_eid, self.relation) != \
                (other.first_eid, other.second_eid, other.relation):
            return False
        return self.events is other.events or (
            self.first == other.first and self.second == other.second)

    def __hash__(self) -> int:
        return hash((self.first_eid, self.second_eid, self.relation))

    def __repr__(self) -> str:
        return (f"DynamicRace(first={self.first!r}, second={self.second!r}, "
                f"relation={self.relation!r}, race_class={self.race_class!r})")

    def __str__(self) -> str:
        tag = f" [{self.race_class}]" if self.race_class else ""
        return (f"{self.relation}-race{tag}: {self.first} <-> {self.second} "
                f"(distance {self.event_distance})")


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
