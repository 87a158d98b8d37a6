"""Single resolution layer for the detector variant.

* :class:`VariantSpec` is the one resolved selection — a detector
  *variant*. ``"fast"`` (the default) runs the SmartTrack-style epoch
  HB, WCP and DC detectors (:mod:`repro.analysis.smarttrack`) over one
  shared trace index, the production path; ``"reference"`` runs the
  dict-backed detectors that define the semantics and serve as the
  test oracle. Both produce identical races, ``racing_at`` sets (which
  drive race classification), counters and DC constraint graphs.

* :func:`make_analysis_detector` / :func:`make_analysis_detectors`
  are the one place that maps a variant to detector classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple, Union

from repro.core import kernels

#: Recognized detector variants; the first is the default.
VARIANTS = ("fast", "reference")


@dataclass(frozen=True)
class VariantSpec:
    """A resolved detector-variant selection."""

    variant: str = VARIANTS[0]

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(
                f"variant must be one of {', '.join(map(repr, VARIANTS))}"
                f", got {self.variant!r}")

    def apply(self) -> str:
        """Return the kernel implementation the analysis runs on (kept
        for callers that record it next to their results)."""
        return kernels.active_backend()


def coerce(value: Union[str, VariantSpec, None]) -> VariantSpec:
    """Normalize a variant name (or None, the default) to a spec."""
    if isinstance(value, VariantSpec):
        return value
    return VariantSpec() if value is None else VariantSpec(variant=value)


def make_analysis_detector(which: str,
                           variant: Union[str, VariantSpec]) -> Any:
    """Construct the ``which`` ∈ {"hb", "wcp", "dc"} detector for a
    variant. The DC detector is always built with ``build_graph=True``
    — the pipeline needs the constraint graph for vindication."""
    variant = coerce(variant).variant
    if which not in ("hb", "wcp", "dc"):
        raise ValueError(f"unknown detector {which!r}")
    if variant == "fast":
        from repro.analysis.smarttrack import (EpochDCDetector,
                                               EpochHBDetector,
                                               EpochWCPDetector)
        if which == "hb":
            return EpochHBDetector()
        return (EpochWCPDetector() if which == "wcp"
                else EpochDCDetector(build_graph=True))
    if which == "hb":
        from repro.analysis.hb import HBDetector
        return HBDetector()
    if which == "wcp":
        from repro.analysis.wcp import WCPDetector
        return WCPDetector()
    from repro.analysis.dc import DCDetector
    return DCDetector(build_graph=True)


def make_analysis_detectors(
        variant: Union[str, VariantSpec]) -> Tuple[Any, Any, Any]:
    """The full ``(hb, wcp, dc)`` trio for one variant."""
    return (make_analysis_detector("hb", variant),
            make_analysis_detector("wcp", variant),
            make_analysis_detector("dc", variant))
