"""One in-process pass of the pipeline over a trace file, traced or not.

``run.py`` starts this script in a fresh process for each traced and
untraced pass, so both start cold and each pass's peak RSS is its own::

    python e2ebench/pipeline.py --mode cold --trace-file t.trace \\
        --traced 1 --out pass.json

``--mode cold`` calls the public entry points in pipeline order:
``load_trace``, each detector's ``analyze(trace)`` in turn,
``Vindicator.finalize`` and ``to_document`` plus ``json.dumps``. This
differs from ``vindicator analyze``, which drives hb, wcp and dc in
lockstep, event by event (``begin_trace``/``handle``/``finish``), so
that each detector's time can be taken on its own; ``run.py`` puts the
untraced pass's process wall next to the CLI's on the info line, so
drift between the two paths shows. ``--mode serve`` feeds the same lines
to a ``SessionAnalyzer`` frame by frame and then calls ``finish`` and
the reply's ``encode_frame``, as one ``vindicator serve`` session does.

With ``--traced 1`` the calls into each layer are timed from here, by
spans around the calls and by wrapping the layers' public functions
(``vindicate_race``, ``add_constraints``, ``construct_reordered_trace``,
``check_witness``, ``ReachabilityIndex.checkpoint``/``restore``,
``Vindicator.finalize``, ``VindicatorReport.to_document`` and
``repro.serve.gc.collect``); nothing inside the program changes. A
span's self time is its duration minus its child spans', so the self
times plus the time no span covers add up to the pass's wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List

PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from inputs import FRAME_LINES, trace_lines, verdict_digest  # noqa: E402

import repro.serve.gc  # noqa: E402
import repro.vindicate.vindicator as vindicator_module  # noqa: E402
from repro.analysis.variants import make_analysis_detectors  # noqa: E402
from repro.graph.reachability import ReachabilityIndex  # noqa: E402
from repro.serve.protocol import encode_frame, ok_response  # noqa: E402
from repro.serve.session import SessionAnalyzer, SessionConfig  # noqa: E402
from repro.traces.io import load_trace  # noqa: E402
from repro.vindicate.vindicator import Vindicator, VindicatorReport  # noqa: E402


def rss_mb() -> float:
    """This process's resident set size now (Linux ``statm``)."""
    with open("/proc/self/statm", encoding="ascii") as handle:
        pages = int(handle.read().split()[1])
    return pages * PAGE_BYTES / 2**20


class _Span:
    __slots__ = ("tracer", "name", "start")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        self.tracer.child_time.append(0.0)
        self.start = time.perf_counter()

    def __exit__(self, *exc: object) -> None:
        duration = time.perf_counter() - self.start
        tracer = self.tracer
        children = tracer.child_time.pop()
        tracer.child_time[-1] += duration
        tracer.self_s[self.name] += duration - children
        tracer.durations[self.name].append(duration)


class _NoSpan:
    def __enter__(self) -> None:
        pass

    def __exit__(self, *exc: object) -> None:
        pass


_NO_SPAN = _NoSpan()


class Tracer:
    """Spans kept in memory: per-name self time and every duration.

    A disabled tracer hands out one shared no-op context and installs
    no wrappers, so the untraced pass runs the same code minus timing.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.self_s: Dict[str, float] = defaultdict(float)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        #: Child-span time accumulated per open span; [0] is the root.
        self.child_time: List[float] = [0.0]
        self.rss_rise_mb: Dict[str, float] = {}

    def span(self, name: str) -> Any:
        return _Span(self, name) if self.enabled else _NO_SPAN

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a wrapper that runs it in a span."""
        original: Callable[..., Any] = getattr(owner, attr)

        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)

    def install(self) -> None:
        if not self.enabled:
            return
        for attr, name in (("vindicate_race", "vindicate.race"),
                           ("add_constraints", "vindicate.add_constraints"),
                           ("construct_reordered_trace", "vindicate.construct"),
                           ("check_witness", "vindicate.check_witness")):
            self.wrap(vindicator_module, attr, name)
        self.wrap(ReachabilityIndex, "checkpoint", "graph.checkpoint")
        self.wrap(ReachabilityIndex, "restore", "graph.restore")
        self.wrap(VindicatorReport, "to_document", "report.to_document")
        self.wrap(repro.serve.gc, "collect", "serve.gc")
        finalize = Vindicator.finalize

        def traced_finalize(vindicator: Vindicator, *args: Any,
                            **kwargs: Any) -> Any:
            before = rss_mb()
            with self.span("vindicate.finalize"):
                report = finalize(vindicator, *args, **kwargs)
            self.rss_rise_mb["vindicate"] = rss_mb() - before
            return report

        Vindicator.finalize = traced_finalize  # type: ignore[method-assign]


def run_cold(path: str, tracer: Tracer) -> Dict[str, Any]:
    start = time.perf_counter()
    with tracer.span("traces.load"):
        trace = load_trace(path)
    vindicator = Vindicator()
    vindicator.variant_spec.apply()
    detectors = make_analysis_detectors(vindicator.variant_spec)
    before = rss_mb()
    reports = []
    for name, detector in zip(("hb", "wcp", "dc"), detectors):
        detector.transitive_force = vindicator.transitive_force
        with tracer.span(f"analysis.{name}"):
            reports.append(detector.analyze(trace))
    tracer.rss_rise_mb["analysis"] = rss_mb() - before
    hb, wcp, dc = detectors
    report = vindicator.finalize(trace, hb, wcp, dc, *reports)
    document = report.to_document()
    with tracer.span("report.json"):
        text = json.dumps(document, indent=2, sort_keys=True)
    wall = time.perf_counter() - start
    return {"wall_s": wall, "document": document, "json_bytes": len(text),
            "dc_graph_edges": dc.graph.stats()["edges"]}


def run_serve(path: str, tracer: Tracer) -> Dict[str, Any]:
    lines = trace_lines(path)
    frames = [lines[i:i + FRAME_LINES]
              for i in range(0, len(lines), FRAME_LINES)]
    start = time.perf_counter()
    analyzer = SessionAnalyzer(SessionConfig(name="bench"))
    before = rss_mb()
    for frame in frames:
        with tracer.span("serve.feed"):
            analyzer.feed_lines(frame)
    tracer.rss_rise_mb["analysis"] = rss_mb() - before
    with tracer.span("serve.finish"):
        document = analyzer.finish()
    with tracer.span("report.json"):
        reply = encode_frame(ok_response(
            "finish", report=document,
            trace_hash=analyzer.hasher.hexdigest()))
    wall = time.perf_counter() - start
    assert analyzer.dc.graph is not None
    return {"wall_s": wall, "document": document, "json_bytes": len(reply),
            "dc_graph_edges": analyzer.dc.graph.stats()["edges"],
            "gc_retired": analyzer.gc_retired}


def main(argv: "List[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("cold", "serve"), required=True)
    parser.add_argument("--trace-file", required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    tracer = Tracer(bool(args.traced))
    tracer.install()
    if args.mode == "cold":
        result = run_cold(args.trace_file, tracer)
    else:
        result = run_serve(args.trace_file, tracer)
    document = result.pop("document")
    vindications = document["vindications"]
    result.update(
        digest=verdict_digest(document),
        backend=document["kernels"]["backend"],
        events=document["trace"]["events"],
        dc_races=len(document["analyses"]["dc"]["races"]),
        dc_only_races=document["race_classes"].get("DC-only", 0),
        dc_counters=document["analyses"]["dc"]["counters"],
        verdicts=[v["verdict"] for v in vindications],
        construct_attempts=sum(v["attempts"] for v in vindications),
        unattributed_s=result["wall_s"] - tracer.child_time[0],
        self_s=dict(tracer.self_s),
        durations=dict(tracer.durations),
        rss_rise_mb=tracer.rss_rise_mb,
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
