"""VINDICATERACE and the full Vindicator pipeline (Sections 3, 5, 6.1).

:func:`vindicate_race` is Algorithm 1: check one DC-race against the
constraint graph, returning a verdict —

* ``RACE`` with a checked witness (a correctly reordered trace executing
  the pair consecutively),
* ``NO_RACE`` with the refuting constraint cycle, or
* ``UNKNOWN`` when the greedy constructor fails (inconclusive).

:class:`Vindicator` is the end-to-end system: it runs HB, WCP, and DC
analyses over the same trace in lockstep (as the paper's implementation
does, to classify each DC-race as an HB-race, WCP-only race, or DC-only
race), then vindicates every dynamic DC-only race. All edges VindicateRace
adds to the shared constraint graph are removed afterwards so each race
is checked independently.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro import obs
from repro.core import kernels
from repro.core.events import Event
from repro.core.exceptions import SanitizerError
from repro.core.trace import Trace
from repro.core.witness import Witness
from repro.graph.constraint_graph import ConstraintGraph
from repro.graph.cuts import CutIndex
from repro.analysis.dc import DCDetector
from repro.analysis.hb import HBDetector
from repro.analysis.races import DynamicRace, RaceClass, RaceReport, classify
from repro.analysis.variants import (VARIANTS, VariantSpec, coerce,
                                     make_analysis_detectors)
from repro.analysis.wcp import WCPDetector
from repro.obs.schema import ANALYZE_SCHEMA_ID
from repro.static.lockset import LocksetResult, analyze_locksets, cross_check
from repro.vindicate.add_constraints import add_constraints
from repro.vindicate.construct import (POLICIES, ConstructionStats,
                                       construct_reordered_trace)
from repro.vindicate.verify import check_witness


class Verdict(enum.Enum):
    """Outcome of VINDICATERACE for one DC-race."""

    RACE = "predictable race"
    NO_RACE = "no predictable race"
    UNKNOWN = "don't know"

    def __str__(self) -> str:
        return self.value


@dataclass
class Vindication:
    """The result of vindicating one DC-race.

    Attributes:
        race: The DC-race that was checked.
        verdict: RACE / NO_RACE / UNKNOWN.
        witness: The correctly reordered witness trace (verdict RACE):
            a thread cut when it is the observed order restricted to the
            race's ancestors, an event list otherwise; ``events()``
            lists either.
        cycle: The refuting constraint cycle's event ids (verdict NO_RACE).
        consecutive_edges: Consecutive-event constraints added.
        ls_constraints: Lock-semantics constraints added (Table 3 metric).
        attempts: ATTEMPTTOCONSTRUCTTRACE calls (>1 ⇒ missing-release retry).
        elapsed_seconds: Wall-clock time of this vindication.
    """

    race: DynamicRace
    verdict: Verdict
    witness: Optional[Witness] = None
    cycle: Optional[List[int]] = None
    consecutive_edges: int = 0
    ls_constraints: int = 0
    attempts: int = 0
    elapsed_seconds: float = 0.0

    def __str__(self) -> str:
        return f"{self.race} -> {self.verdict}"


def vindicate_race(
    graph: ConstraintGraph,
    trace: Trace,
    race: DynamicRace,
    policy: str = "latest",
    seed: int = 0,
    check: bool = True,
    use_window: bool = False,
    index: Optional[CutIndex] = None,
) -> Vindication:
    """Run VINDICATERACE (Algorithm 1) on one DC-race.

    The graph is temporarily extended with the race's constraints and
    restored before returning, so a single graph serves every race.

    Args:
        graph: The DC constraint graph for ``trace``.
        trace: The observed trace.
        race: The DC-race to vindicate.
        policy: Greedy choice policy for the constructor (``"latest"`` is
            the paper's; ``"earliest"``/``"random"`` exist for ablation).
        seed: Random seed for the ``"random"`` policy.
        check: Validate any witness against Definition 2.1 before
            reporting RACE (the paper's sanity check, on by default).
        use_window: Restrict AddConstraints's searches to the event
            window around the race, expanding on the fly (Section 6.1's
            second optimisation).
        index: Shared cut index over ``graph``; created fresh when not
            supplied. Sharing one across races builds its tables once
            and lets the caller accumulate its counters.
    """
    e1, e2 = race.first, race.second
    if index is None:
        index = CutIndex(graph, trace)
    start = time.perf_counter()
    with obs.span("vindicate.race") as span:
        stats = ConstructionStats()
        with obs.span("vindicate.add_constraints") as sp:
            constraints = add_constraints(graph, trace, e1, e2,
                                          use_window=use_window, index=index)
            sp.annotate("edges", len(constraints.added_edges))
            sp.annotate("rounds", constraints.rounds)
        try:
            if constraints.refuted:
                vindication = Vindication(
                    race=race,
                    verdict=Verdict.NO_RACE,
                    cycle=constraints.cycle,
                    consecutive_edges=constraints.consecutive_edges,
                    ls_constraints=constraints.ls_edges,
                    elapsed_seconds=time.perf_counter() - start,
                )
            else:
                with obs.span("vindicate.construct") as sp:
                    witness, stats = construct_reordered_trace(
                        graph, trace, e1, e2, policy=policy, seed=seed,
                        index=index)
                    sp.annotate("attempts", stats.attempts)
                    sp.annotate("placed", stats.placed_events)
                    sp.annotate("replayed", stats.replayed_events)
                if witness is None:
                    verdict = Verdict.UNKNOWN
                else:
                    verdict = Verdict.RACE
                    if check:
                        with obs.span("vindicate.check_witness") as sp:
                            sp.annotate("events", len(witness))
                            check_witness(trace, witness, e1, e2)
                vindication = Vindication(
                    race=race,
                    verdict=verdict,
                    witness=witness,
                    consecutive_edges=constraints.consecutive_edges,
                    ls_constraints=constraints.ls_edges,
                    attempts=stats.attempts,
                    elapsed_seconds=time.perf_counter() - start,
                )
        finally:
            with obs.span("vindicate.untag") as sp:
                for src, dst in reversed(constraints.added_edges):
                    graph.remove_edge(src, dst)
                sp.annotate("edges", len(constraints.added_edges))
        span.annotate("verdict_" + vindication.verdict.name.lower(), 1)
    reg = obs.metrics()
    if reg.enabled:
        reg.add("vindicate.races_checked", 1)
        reg.add(f"vindicate.verdict.{vindication.verdict.name.lower()}", 1)
        reg.add("vindicate.constraints.consecutive",
                vindication.consecutive_edges)
        reg.add("vindicate.constraints.ls", vindication.ls_constraints)
        reg.add("vindicate.rounds", constraints.rounds)
        reg.add("vindicate.cycle_checks", constraints.cycle_checks)
        reg.add("vindicate.construct_attempts", vindication.attempts)
        reg.add("vindicate.construct.placed_events", stats.placed_events)
        reg.add("vindicate.construct.replayed_events", stats.replayed_events)
        if vindication.attempts > 1:
            reg.add("vindicate.construct_retries", vindication.attempts - 1)
        reg.histogram("vindicate.seconds").observe(vindication.elapsed_seconds)
    return vindication


@dataclass
class VindicatorReport:
    """End-to-end results of the Vindicator pipeline on one trace.

    The per-analysis reports correspond to Table 1's columns; the
    classified DC races and their vindications drive Tables 2–3 and
    Figure 6.
    """

    trace: Trace
    hb: RaceReport
    wcp: RaceReport
    dc: RaceReport
    vindications: List[Vindication] = field(default_factory=list)
    analysis_seconds: float = 0.0
    vindication_seconds: float = 0.0
    #: Lockset pre-analysis verdicts (set when the pipeline ran with
    #: ``prefilter`` or ``sanitize``; None otherwise).
    lockset: Optional[LocksetResult] = None
    #: Where the analyzed trace came from (generator/scheduler seed and
    #: config) — copied from :attr:`repro.core.trace.Trace.provenance`
    #: so a measured run is reproducible from its own report.
    provenance: Dict[str, object] = field(default_factory=dict)
    #: Metrics snapshot captured when the pipeline ran with
    #: observability enabled; None otherwise.
    obs: Optional[Dict[str, object]] = None

    @property
    def dc_only_races(self) -> List[DynamicRace]:
        """Dynamic DC-races that are not WCP-races."""
        return [r for r in self.dc.races if r.race_class is RaceClass.DC_ONLY]

    @property
    def confirmed_races(self) -> List[Vindication]:
        return [v for v in self.vindications if v.verdict is Verdict.RACE]

    def summary(self) -> str:
        """A human-readable multi-line summary."""
        lines = [
            f"trace: {len(self.trace)} events, {len(self.trace.threads)} threads",
            str(self.hb),
            str(self.wcp),
            str(self.dc),
            f"DC-only dynamic races: {len(self.dc_only_races)}",
        ]
        for v in self.vindications:
            lines.append(f"  {v}")
        return "\n".join(lines)

    def to_document(self) -> Dict[str, object]:
        """The report as a ``vindicator.analyze/1`` JSON document.

        The shape is pinned by
        :data:`repro.obs.schema.ANALYZE_SCHEMA` and documented in
        ``docs/OBSERVABILITY.md``; this is the stable machine-readable
        surface that ``vindicator analyze --json`` emits and that
        benchmarks/CI consume instead of scraping human-format stdout.
        """
        lockset_doc: Optional[Dict[str, object]] = None
        if self.lockset is not None:
            lockset_doc = {
                "summary": self.lockset.summary(),
                "verdicts": {verdict.value: count for verdict, count
                             in self.lockset.counts().items()},
            }
        return {
            "schema": ANALYZE_SCHEMA_ID,
            "trace": {
                "events": len(self.trace),
                "threads": list(self.trace.threads),
                "variables": len(self.trace.variables()),
                "provenance": dict(self.provenance),
            },
            "analyses": {
                "hb": _analysis_doc(self.hb),
                "wcp": _analysis_doc(self.wcp),
                "dc": _analysis_doc(self.dc),
            },
            "race_classes": {str(cls): len(races) for cls, races
                             in self.dc.by_class().items()},
            "vindications": [_vindication_doc(v) for v in self.vindications],
            "lockset": lockset_doc,
            "timing": {
                "analysis_seconds": self.analysis_seconds,
                "vindication_seconds": self.vindication_seconds,
            },
            "metrics": self.obs,
            # Kept for document consumers; the pipeline is serial.
            "parallel": {"jobs": 1},
            "kernels": {"backend": kernels.active_backend()},
        }


def _event_doc(e: Event) -> Dict[str, object]:
    return {"eid": e.eid, "tid": e.tid, "kind": e.kind.value,
            "target": e.target, "loc": e.loc}


def _race_doc(race: DynamicRace) -> Dict[str, object]:
    return {
        "first": _event_doc(race.first),
        "second": _event_doc(race.second),
        "relation": race.relation,
        "race_class": str(race.race_class) if race.race_class else None,
        "distance": race.event_distance,
    }


def _analysis_doc(report: RaceReport) -> Dict[str, object]:
    return {
        "relation": report.relation,
        "static_races": report.static_count,
        "dynamic_races": report.dynamic_count,
        "races": [_race_doc(r) for r in report.races],
        "counters": dict(report.counters),
    }


def _vindication_doc(v: Vindication) -> Dict[str, object]:
    return {
        "race": _race_doc(v.race),
        "verdict": str(v.verdict),
        "ls_constraints": v.ls_constraints,
        "consecutive_edges": v.consecutive_edges,
        "attempts": v.attempts,
        "elapsed_seconds": v.elapsed_seconds,
        "witness_events": len(v.witness) if v.witness is not None else None,
        "cycle": list(v.cycle) if v.cycle is not None else None,
    }


class Vindicator:
    """The complete Vindicator system.

    Runs HB, WCP, and DC analyses in lockstep over a trace, classifies
    every DC-race, and vindicates the DC-only ones (optionally all).

    Args:
        vindicate_all: Vindicate every DC-race instead of only DC-only
            races (the paper vindicates DC-only races because WCP-races
            are already known true, modulo the deadlock caveat).
        policy: Greedy policy for the witness constructor.
        check_witnesses: Validate witnesses against Definition 2.1.
        prefilter: Run the lockset pre-analysis first and install its
            race-candidate set as every detector's fast-path filter.
            Changes no verdict (the verdicts are sound exclusions);
            skips the race check on provably race-free variables.
        sanitize: Cross-check every detector's races against the
            lockset over-approximation and raise
            :class:`~repro.core.exceptions.SanitizerError` on any race
            over a provably race-free variable.
        variant: ``"fast"`` (default) runs the SmartTrack-style epoch
            WCP/DC detectors (:mod:`repro.analysis.smarttrack`), the
            production path; ``"reference"`` runs the dict-backed
            detectors that define the semantics. Both give identical
            races, counters and DC constraint graphs. A
            :class:`~repro.analysis.variants.VariantSpec` is accepted
            too. HB always runs the reference detector
            (it is not the bottleneck and its ``racing_at`` drives
            classification).
    """

    def __init__(self, vindicate_all: bool = False, policy: str = "latest",
                 check_witnesses: bool = True, transitive_force: bool = True,
                 use_window: bool = False, prefilter: bool = False,
                 sanitize: bool = False,
                 variant: "str | VariantSpec" = VARIANTS[0]):
        if policy not in POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; expected one of {POLICIES}")
        self.vindicate_all = vindicate_all
        self.policy = policy
        self.check_witnesses = check_witnesses
        #: Enable AddConstraints's event-window optimisation.
        self.use_window = use_window
        #: See :attr:`repro.analysis.base.Detector.transitive_force`; with
        #: False, dependent DC-races surface and are refuted by
        #: VindicateRace instead of being suppressed by the detector.
        self.transitive_force = transitive_force
        #: Enable the lockset fast-path filter on all three detectors.
        self.prefilter = prefilter
        #: Enable the lockset cross-check on all three race reports.
        self.sanitize = sanitize
        spec = coerce(variant)
        #: The resolved variant selection
        #: (:class:`repro.analysis.variants.VariantSpec`).
        self.variant_spec = spec
        #: Detector implementation: "fast" (epoch/dense) or "reference".
        self.variant = spec.variant

    def run(self, trace: Trace) -> VindicatorReport:
        """Analyze ``trace`` end to end."""
        with obs.span("pipeline.run") as pipeline_span:
            report = self._run(trace, pipeline_span)
        reg = obs.metrics()
        if reg.enabled:
            # Snapshot *after* every phase has published its batch.
            report.obs = reg.snapshot()
        return report

    def _run(self, trace: Trace, pipeline_span: obs.AnySpan) -> VindicatorReport:
        lockset: Optional[LocksetResult] = None
        candidates = None
        if self.prefilter or self.sanitize:
            lockset = analyze_locksets(trace.events)
            if self.prefilter:
                candidates = lockset.race_candidates
        hb, wcp, dc = make_analysis_detectors(self.variant_spec,
                                              prefilter=candidates)
        for detector in (hb, wcp, dc):
            detector.transitive_force = self.transitive_force
        start = time.perf_counter()
        with obs.span("pipeline.analysis") as sp:
            for detector in (hb, wcp, dc):
                detector.begin_trace(trace)
            for event in trace:
                hb.handle(event)
                wcp.handle(event)
                dc.handle(event)
            hb_report = hb.finish()
            wcp_report = wcp.finish()
            dc_report = dc.finish()
            sp.annotate("events", len(trace))
        analysis_seconds = time.perf_counter() - start
        report = self.finalize(trace, hb, wcp, dc,
                               hb_report, wcp_report, dc_report,
                               analysis_seconds=analysis_seconds,
                               lockset=lockset)
        pipeline_span.annotate("events", len(trace))
        return report

    def finalize(self, trace: Trace, hb: HBDetector, wcp: "WCPDetector",
                 dc: "DCDetector", hb_report: RaceReport,
                 wcp_report: RaceReport, dc_report: RaceReport,
                 analysis_seconds: float = 0.0,
                 lockset: Optional[LocksetResult] = None) -> VindicatorReport:
        """Everything after the per-event analysis loop: classify each
        DC-race via the detectors' racing sets, sanitize, assemble the
        report, and vindicate. Shared by :meth:`_run` and the streaming
        service (:mod:`repro.serve`), whose sessions feed the same
        detectors incrementally and must end in a bit-identical report.
        """
        with obs.span("pipeline.classify") as sp:
            classified: List[DynamicRace] = []
            for race in dc_report.races:
                hb_unordered = race.first.eid in hb.racing_at.get(race.second.eid, ())
                wcp_unordered = race.first.eid in wcp.racing_at.get(race.second.eid, ())
                race_class = classify((not hb_unordered, not wcp_unordered))
                classified.append(replace(race, race_class=race_class))
            dc_report.races = classified
            sp.annotate("dc_races", len(classified))

        if self.sanitize:
            assert lockset is not None
            violations: List[str] = []
            for analysis_report in (hb_report, wcp_report, dc_report):
                violations.extend(cross_check(analysis_report.races, lockset))
            if violations:
                raise SanitizerError(violations)

        report = VindicatorReport(
            trace=trace, hb=hb_report, wcp=wcp_report, dc=dc_report,
            analysis_seconds=analysis_seconds, lockset=lockset,
            provenance=dict(trace.provenance))
        start = time.perf_counter()
        index = CutIndex(dc.graph, trace)
        with obs.span("pipeline.vindicate") as sp:
            for race in classified:
                if not self.vindicate_all and race.race_class is not RaceClass.DC_ONLY:
                    continue
                # The first call builds the cut tables here, outside
                # the first race's span; later calls only read the
                # previous race's edge removals from the journal.
                index.sync()
                report.vindications.append(
                    vindicate_race(dc.graph, trace, race, policy=self.policy,
                                   check=self.check_witnesses,
                                   use_window=self.use_window, index=index))
            sp.annotate("races", len(report.vindications))
        report.vindication_seconds = time.perf_counter() - start
        # Surface the cut index's counters on the DC report (Table 4
        # analog reports these alongside timing).
        for counter, value in index.stats().items():
            if value:
                dc.bump(counter, value)
        reg = obs.metrics()
        if reg.enabled:
            for name, value in index.stats().items():
                reg.add(f"graph.{name}", value)
            for name, value in dc.graph.stats().items():
                reg.gauge(f"graph.{name}").track_max(value)
            for name, value in index.footprint().items():
                reg.gauge(f"graph.{name}").track_max(value)
        return report
