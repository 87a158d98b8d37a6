"""Race detection analyses: HB, WCP, DC (online) and reference engines."""

import importlib
from typing import TYPE_CHECKING

from repro.analysis.base import AccessHistory, Detector
from repro.analysis.smarttrack import EpochDCDetector, EpochWCPDetector
from repro.analysis.races import (
    DynamicRace,
    RaceClass,
    RaceReport,
    classify,
    static_races,
)

if TYPE_CHECKING:
    from repro.analysis.dc import DCDetector
    from repro.analysis.fasttrack import FastTrackDetector
    from repro.analysis.hb import HBDetector
    from repro.analysis.reference import ReferenceAnalysis
    from repro.analysis.wcp import WCPDetector

#: Names imported on first access (PEP 562): the reference detectors
#: and engines are test oracles and ``--variant reference``, so the
#: production paths (the CLI's default and serve sessions) never load
#: them, and ReferenceAnalysis needs numpy.
LAZY = {
    "DCDetector": "repro.analysis.dc",
    "FastTrackDetector": "repro.analysis.fasttrack",
    "HBDetector": "repro.analysis.hb",
    "ReferenceAnalysis": "repro.analysis.reference",
    "WCPDetector": "repro.analysis.wcp",
}

__all__ = [
    "AccessHistory",
    "DCDetector",
    "Detector",
    "DynamicRace",
    "EpochDCDetector",
    "EpochWCPDetector",
    "FastTrackDetector",
    "HBDetector",
    "RaceClass",
    "RaceReport",
    "ReferenceAnalysis",
    "WCPDetector",
    "classify",
    "static_races",
]


def __getattr__(name: str) -> object:
    module = LAZY.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)
