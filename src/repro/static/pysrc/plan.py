"""Instrumentation plan: what the dynamic frontend must observe.

The plan is the bridge to the ROADMAP's "real-Python-program frontend"
item: for each module it lists every access site with its tier and an
``instrument`` bit, plus the lock symbols and spawn points the frontend
must intercept to reconstruct acq/rel/fork/join events.

The pruning rule is deliberately asymmetric, mirroring the trace-level
race-candidate verdicts in :mod:`repro.static.lockset`: a site is dropped **only**
when its whole alias cluster is ``thread-local`` — proven unreachable
from more than one thread.  Every weaker tier (including ``guarded``)
stays instrumented, because the dynamic detectors, not the static
scan, are the ground truth for everything the scan cannot prove.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from repro.static.pysrc.ir import AccessSite, SiteTier
from repro.static.pysrc.report import ScanReport


@dataclass
class PlanEntry:
    """One source site in the instrumentation plan."""

    site: AccessSite

    @property
    def instrument(self) -> bool:
        return self.site.tier is not SiteTier.THREAD_LOCAL

    def to_dict(self) -> Dict[str, Any]:
        site = self.site
        return {
            "file": site.file,
            "line": site.line,
            "col": site.col,
            "function": site.function,
            "path": site.path.label(),
            "kind": site.kind,
            "tier": str(site.tier),
            "instrument": self.instrument,
            "reached": site.reached,
            "locks": sorted(site.effective_locks),
        }


def build_plan(report: ScanReport) -> List[PlanEntry]:
    entries = [PlanEntry(site) for site in report.module.all_sites()]
    entries.sort(key=lambda e: (e.site.file, e.site.line, e.site.col))
    return entries


def module_document(report: ScanReport) -> Dict[str, Any]:
    """The per-module body of a ``vindicator.scan/1`` document."""
    plan = build_plan(report)
    instrumented = sum(1 for e in plan if e.instrument)
    module = report.module
    model = report.model
    return {
        "path": module.path,
        "name": module.name,
        "counters": {
            "sites": len(plan),
            "instrumented": instrumented,
            "pruned": len(plan) - instrumented,
            "candidates": len(report.candidate_labels()),
            "findings": len(report.findings),
            "errors": report.error_count(),
            "opaque_accesses": module.opaque_accesses,
            "unknown_entries": module.unknown_entries,
            "entries": len(model.entries),
        },
        "entries": sorted(model.entries),
        "locks": sorted(module.lock_symbols | module.acquired_locks),
        "spawns": [
            {
                "entry": sp.entry,
                "function": sp.function,
                "file": sp.file,
                "line": sp.line,
                "via": sp.via,
                "in_loop": sp.in_loop,
            }
            for sp in sorted(module.all_spawns(),
                             key=lambda s: (s.file, s.line, s.entry))
        ],
        "tiers": [
            {
                "path": cluster.label,
                "tier": str(cluster.tier),
                "sites": len(cluster.sites),
            }
            for cluster in report.clusters
        ],
        "findings": [
            {
                "code": f.code,
                "severity": f.severity.name.lower(),
                "message": f.message,
                "path": f.path,
                "locations": [
                    {"file": s.file, "line": s.line,
                     "function": s.function, "kind": s.kind}
                    for s in (f.a, f.b)
                ],
            }
            for f in report.findings
        ],
        "plan": [e.to_dict() for e in plan],
    }
