"""Core data model: events, traces, vector clocks, exceptions."""

from repro.core.events import Event, EventKind, Target, Tid, conflicts
from repro.core.trace import Trace, TraceBuilder
from repro.core.vectorclock import VectorClock
from repro.core.exceptions import (
    MalformedReorderingError,
    MalformedTraceError,
    ReproError,
    TraceFormatError,
    VindicationError,
)

__all__ = [
    "Event",
    "EventKind",
    "MalformedReorderingError",
    "MalformedTraceError",
    "ReproError",
    "Target",
    "Tid",
    "Trace",
    "TraceBuilder",
    "TraceFormatError",
    "VectorClock",
    "VindicationError",
    "conflicts",
]
