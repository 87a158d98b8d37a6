"""Paper-style rendering of traces and witnesses.

The paper draws executions as one column per thread with time flowing
downward (Figures 1–5). :func:`render_columns` reproduces that layout in
text, which makes witness traces dramatically easier to read than a
flat event list — the CLI's ``--witness`` output and the examples use
it. Racing events can be highlighted::

    Thread 1    Thread 2
    --------    --------
    wr(x)
    acq(m)
    wr(z)
    rel(m)
                acq(m)
                rd(y)
                rel(m)
                rd(x)      <== race
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set, Union

from repro.core.events import Event, Tid
from repro.core.trace import Trace
from repro.core.witness import CutWitness, ListedWitness, Witness


def _label(e: Event) -> str:
    if e.target is None:
        return f"{e.kind.value}"
    return f"{e.kind.value}({e.target})"


def render_columns(events: Union[Trace, Sequence[Event]],
                   highlight: Optional[Iterable[int]] = None,
                   min_width: int = 10) -> str:
    """Render events as per-thread columns in the paper's figure style.

    Args:
        events: A trace or any event sequence (e.g. a witness).
        highlight: Event ids to mark with ``<== race``.
        min_width: Minimum column width.
    """
    event_list: List[Event] = list(events)
    if not event_list:
        return "(empty trace)"
    marked: Set[int] = set(highlight or ())

    threads: List[Tid] = []
    for e in event_list:
        if e.tid not in threads:
            threads.append(e.tid)
    widths = {}
    for tid in threads:
        cells = [len(_label(e)) for e in event_list if e.tid == tid]
        widths[tid] = max([min_width, len(f"Thread {tid}")] + cells) + 2

    def row(cells: List[str]) -> str:
        return "".join(cell.ljust(widths[tid])
                       for tid, cell in zip(threads, cells)).rstrip()

    lines = [row([f"Thread {tid}" for tid in threads]),
             row(["-" * (widths[tid] - 2) for tid in threads])]
    for e in event_list:
        cells = ["" if tid != e.tid else _label(e) for tid in threads]
        line = row(cells)
        if e.eid in marked:
            line = line.ljust(sum(widths[t] for t in threads)) + "<== race"
        lines.append(line)
    return "\n".join(lines)


def render_witness(witness: Union[Witness, Sequence[Event]], first: Event,
                   second: Event) -> str:
    """Render a vindication witness with its racing pair highlighted."""
    if isinstance(witness, (CutWitness, ListedWitness)):
        witness = witness.events()
    return render_columns(witness, highlight=(first.eid, second.eid))
