"""Static analyses over traces-as-artifacts.

Unlike :mod:`repro.analysis` (online detectors that compute ordering
relations event by event), this package treats a recorded trace as a
*static artifact* and analyses its structure in single linear passes:

* :mod:`repro.static.lint` — a collecting trace linter with stable rule
  codes (``SA1xx``), complementing ``Trace``'s fail-fast validation;
  exposed as ``vindicator lint``;
* :mod:`repro.static.lockset` — Eraser-style lockset + thread-locality
  verdicts per variable. The verdicts are sound exclusions for
  *predictive* race detection, so they serve as an independent
  over-approximation the detectors are cross-checked against
  (``--sanitize``, :func:`~repro.static.lockset.cross_check`);
* :mod:`repro.static.pysrc` — source-level static race analysis over
  real ``threading`` Python programs (and the generator DSL): thread
  structure, shared-access collection, lockset inference, ``SA2xx``
  findings, and the instrumentation plan that feeds the dynamic
  pipeline. Exposed as ``vindicator scan``.
"""

from repro.static.lint import (
    LINT_SCHEMA_ID,
    RULES,
    Diagnostic,
    Severity,
    lint_document,
    lint_events,
    max_severity,
)
from repro.static.lockset import (
    LocksetResult,
    VariableInfo,
    VariableVerdict,
    analyze_locksets,
    cross_check,
)
from repro.static.pysrc import (
    SCAN_SCHEMA_ID,
    ScanResult,
    SiteTier,
    scan_file,
    scan_path,
    scan_source,
)

__all__ = [
    "Diagnostic",
    "LINT_SCHEMA_ID",
    "LocksetResult",
    "RULES",
    "SCAN_SCHEMA_ID",
    "ScanResult",
    "Severity",
    "SiteTier",
    "VariableInfo",
    "VariableVerdict",
    "analyze_locksets",
    "cross_check",
    "lint_document",
    "lint_events",
    "max_severity",
    "scan_file",
    "scan_path",
    "scan_source",
]
