"""Witnesses of predictable races: a thread cut, or an event list.

A witness is a correctly reordered trace in which the racing pair
``first, second`` executes last, back to back (Definition 2.2). The
constructor almost always builds one of a single shape: the observed
trace restricted to a *cut* — one program-order prefix per thread — and
then ``first, second``. :class:`CutWitness` stores just that: the prefix
lengths, one per thread index (``trace.tid_names``' order), and the
pair. Its event list is built only on demand
(:meth:`CutWitness.events`), for rendering and for tests. Whatever the
constructor reorders comes as a :class:`ListedWitness`, an explicit
event list.

Both forms share ``first``, ``second``, ``events()`` and ``len()``, so
callers that only report or render a witness need not know which form
they hold. The checker (:mod:`repro.vindicate.verify`) decides a
:class:`CutWitness` from the cut alone, without listing its events.
"""

from __future__ import annotations

from heapq import merge
from typing import List, Sequence, Tuple, Union

from repro.core.events import Event
from repro.core.trace import Trace


class CutWitness:
    """The observed order of ``trace`` restricted to ``cut``, then
    ``first`` and ``second``.

    Attributes:
        trace: The observed trace the cut is taken over.
        cut: Per thread index (into ``trace.tid_names``), how many of
            its first events the witness holds before the racing pair
            (0 for a fork/join target that never runs).
        first: The racing event placed second to last.
        second: The racing event placed last.
    """

    __slots__ = ("trace", "cut", "first", "second")

    def __init__(self, trace: Trace, cut: Sequence[int], first: Event,
                 second: Event) -> None:
        self.trace = trace
        self.cut: Tuple[int, ...] = tuple(cut)
        self.first = first
        self.second = second

    def events(self) -> List[Event]:
        """The witness as an event list (O(|witness|))."""
        events = self.trace.events
        prefixes = [eids[:count] for eids, count
                    in zip(self.trace.thread_eids, self.cut) if count]
        listed = [events[eid] for eid in merge(*prefixes)]
        listed.append(self.first)
        listed.append(self.second)
        return listed

    def __len__(self) -> int:
        return sum(self.cut) + 2

    def __repr__(self) -> str:
        return (f"CutWitness(cut={self.cut}, first={self.first}, "
                f"second={self.second})")


class ListedWitness:
    """A witness given event by event, its racing pair last."""

    __slots__ = ("listed",)

    def __init__(self, events: Sequence[Event]) -> None:
        self.listed: Tuple[Event, ...] = tuple(events)

    @property
    def first(self) -> Event:
        return self.listed[-2]

    @property
    def second(self) -> Event:
        return self.listed[-1]

    def events(self) -> List[Event]:
        """The witness as an event list (a copy)."""
        return list(self.listed)

    def __len__(self) -> int:
        return len(self.listed)

    def __repr__(self) -> str:
        return f"ListedWitness({list(self.listed)})"


Witness = Union[CutWitness, ListedWitness]
