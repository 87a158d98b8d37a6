"""repro — a reproduction of Vindicator (PLDI 2018).

*High-Coverage, Unbounded Sound Predictive Race Detection* by Jake
Roemer, Kaan Genç, and Michael D. Bond.

The library predicts data races from a single observed execution trace:

>>> from repro import TraceBuilder, Vindicator
>>> trace = (TraceBuilder()
...          .wr(1, "x").acq(1, "m").wr(1, "z").rel(1, "m")
...          .acq(2, "m").rd(2, "y").rel(2, "m").rd(2, "x")
...          .build())
>>> report = Vindicator(vindicate_all=True).run(trace)
>>> report.dc.dynamic_count
1

Public API layers:

* :mod:`repro.core` — events, traces, vector clocks;
* :mod:`repro.analysis` — HB, WCP, and DC online detectors plus exact
  reference engines;
* :mod:`repro.graph` — the constraint graph;
* :mod:`repro.vindicate` — VindicateRace, the witness checker, the
  brute-force predictability oracle, and the end-to-end
  :class:`~repro.vindicate.vindicator.Vindicator`;
* :mod:`repro.runtime` — the execution substrate and DaCapo-analog
  workloads used by the benchmarks;
* :mod:`repro.traces` — litmus traces from the paper, random trace
  generation, and trace file IO;
* :mod:`repro.stats` — event-distance statistics and table helpers.
"""

import importlib
from typing import TYPE_CHECKING

from repro.core.events import Event, EventKind, conflicts
from repro.core.trace import Trace, TraceBuilder
from repro.core.vectorclock import VectorClock
from repro.core.exceptions import (
    MalformedReorderingError,
    MalformedTraceError,
    ReproError,
    TraceFormatError,
    VindicationError,
)
from repro.analysis import LAZY as _LAZY
from repro.analysis.base import Detector
from repro.analysis.races import DynamicRace, RaceClass, RaceReport, static_races
from repro.graph.constraint_graph import ConstraintGraph
from repro.vindicate.vindicator import (
    Verdict,
    Vindication,
    Vindicator,
    VindicatorReport,
    vindicate_race,
)
from repro.vindicate.verify import check_correct_reordering, check_witness
from repro.vindicate.oracle import OracleBudgetExceededError, PredictabilityOracle

if TYPE_CHECKING:
    from repro.analysis.dc import DCDetector
    from repro.analysis.hb import HBDetector
    from repro.analysis.reference import ReferenceAnalysis
    from repro.analysis.wcp import WCPDetector

__version__ = "1.0.0"


def __getattr__(name: str) -> object:
    # PEP 562: the reference detectors and engines load on first access
    # (see repro.analysis.LAZY); ReferenceAnalysis needs numpy.
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)


__all__ = [
    "ConstraintGraph",
    "DCDetector",
    "Detector",
    "DynamicRace",
    "Event",
    "EventKind",
    "HBDetector",
    "MalformedReorderingError",
    "MalformedTraceError",
    "OracleBudgetExceededError",
    "PredictabilityOracle",
    "RaceClass",
    "RaceReport",
    "ReferenceAnalysis",
    "ReproError",
    "Trace",
    "TraceBuilder",
    "TraceFormatError",
    "VectorClock",
    "Verdict",
    "Vindication",
    "VindicationError",
    "Vindicator",
    "VindicatorReport",
    "WCPDetector",
    "check_correct_reordering",
    "check_witness",
    "conflicts",
    "static_races",
    "vindicate_race",
]
