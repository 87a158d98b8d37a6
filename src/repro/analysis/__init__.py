"""Race detection analyses: HB, WCP, DC (online) and reference engines."""

from typing import TYPE_CHECKING

from repro.analysis.base import AccessHistory, Detector
from repro.analysis.hb import HBDetector
from repro.analysis.fasttrack import FastTrackDetector
from repro.analysis.wcp import WCPDetector
from repro.analysis.dc import DCDetector
from repro.analysis.smarttrack import EpochDCDetector, EpochWCPDetector
from repro.analysis.races import (
    DynamicRace,
    RaceClass,
    RaceReport,
    classify,
    static_races,
)

if TYPE_CHECKING:
    from repro.analysis.reference import ReferenceAnalysis

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
    # PEP 562: keep numpy (needed by ReferenceAnalysis only) off the
    # import path of the detectors.
    if name == "ReferenceAnalysis":
        from repro.analysis.reference import ReferenceAnalysis
        return ReferenceAnalysis
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
