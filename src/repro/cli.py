"""Command-line interface: ``vindicator`` / ``python -m repro``.

Sub-commands:

* ``analyze <trace-file>`` — run HB, WCP, and DC analyses plus
  vindication on a text-format trace (see :mod:`repro.traces.io`) and
  print the race report;
* ``lint <trace-file>`` — run the collecting trace linter
  (:mod:`repro.static.lint`) and print every finding with its stable
  rule code; accepts traces too malformed to analyze;
* ``scan <file|package>`` — run the source-level static race analysis
  (:mod:`repro.static.pysrc`) over real Python ``threading`` code (or
  generator-model programs): SA2xx findings plus the
  ``vindicator.scan/1`` instrumentation plan with ``--json``;
* ``litmus [name]`` — run the paper's litmus executions (all, or one by
  name) and show what each analysis finds;
* ``workload <name>`` — execute a DaCapo-analog workload and analyze its
  trace;
* ``profile <trace-file|workload>`` — run the full pipeline with
  observability enabled and print the per-phase span tree plus the
  metrics summary (see :mod:`repro.obs`);
* ``serve`` — run the streaming analysis daemon (:mod:`repro.serve`):
  long-lived client sessions over unix/TCP sockets speaking the framed
  ``vindicator.serve/1`` protocol, a ``*.trace`` drop directory,
  windowed metadata GC, checkpoint/resume, and live Prometheus
  ``/metrics`` (see ``docs/SERVING.md``).

``analyze``, ``litmus``, ``workload`` and ``profile`` accept
``--sanitize`` (cross-check every detector's races against the lockset
pre-analysis; exit 1 on a violation) and ``--variant reference`` (run
the reference HB/WCP/DC detectors instead of the default epoch
detectors; same verdicts). ``analyze`` and
``workload`` accept ``--json`` to emit the machine-readable
``vindicator.analyze/1`` document instead of the human report. Every
``--json`` document is one compact line with sorted keys; pipe it
through ``python -m json.tool`` to read it.

The global ``--metrics <path>`` flag (before the sub-command) enables
the observability subsystem for any command and exports by extension:
``*.jsonl`` streams span/metrics records, ``*.json`` writes the
snapshot document, ``*.prom``/``*.txt`` writes Prometheus text.

``lint`` and ``scan`` share one exit-code contract so both work as CI
gates: **0** — clean, or warnings/notes only; **1** — at least one
error-severity finding; **2** — usage failure (missing or unreadable
input, unparsable source). ``analyze`` and ``profile`` also exit 2 on
a missing or malformed trace file; their exit 1 is a sanitizer
violation. Any command exits **141** (128 + SIGPIPE, what a shell
reports for a C tool killed the same way), without a traceback, when
the reader of its stdout closes the pipe early (``| head``).

Examples::

    vindicator litmus figure2
    vindicator analyze mytrace.txt --vindicate-all --witness
    vindicator analyze mytrace.txt --sanitize --json
    vindicator lint mytrace.txt
    vindicator lint mytrace.txt --json
    vindicator scan examples/broken_cache.py
    vindicator scan examples/ --json
    vindicator workload xalan --seed 3 --scale 0.5
    vindicator --metrics run.jsonl workload avrora
    vindicator profile xalan --scale 0.5
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro import obs
from repro.analysis.races import RaceClass
from repro.analysis.variants import VARIANTS
from repro.core.exceptions import SanitizerError, TraceFormatError
from repro.core.trace import Trace
from repro.obs.export import write_document
from repro.static.lint import Severity, lint_document, lint_events
from repro.stats.distances import static_distance_ranges
from repro.traces.render import render_witness
from repro.traces.io import load_events, load_trace
from repro.traces.litmus import ALL as LITMUS
from repro.vindicate.construct import POLICIES
from repro.vindicate.vindicator import Vindicator, VindicatorReport


#: Exit status when stdout's reader closed the pipe: 128 + SIGPIPE.
EXIT_BROKEN_PIPE = 141


def _print_report(report: VindicatorReport, show_witness: bool) -> None:
    print(f"trace: {len(report.trace)} events, "
          f"{len(report.trace.threads)} threads")
    if report.lockset is not None:
        print(f"  lockset pre-analysis: {report.lockset.summary()}")
    for analysis in (report.hb, report.wcp, report.dc):
        print(f"  {analysis}")
    by_class = report.dc.by_class()
    for race_class in RaceClass:
        races = by_class.get(race_class, [])
        if races:
            print(f"  {race_class}: {len(races)} dynamic")
    if report.vindications:
        print("vindication:")
        for v in report.vindications:
            print(f"  {v.race}")
            print(f"    -> {v.verdict} (LS constraints: {v.ls_constraints}, "
                  f"attempts: {v.attempts}, {v.elapsed_seconds * 1e3:.1f} ms)")
            if show_witness and v.witness is not None:
                print("    witness (correctly reordered trace):")
                for line in render_witness(v.witness, v.race.first,
                                           v.race.second).splitlines():
                    print(f"      {line}")
    ranges = static_distance_ranges(
        [r for r in report.dc.races if r.race_class is RaceClass.DC_ONLY])
    if ranges:
        print("DC-only static races (event distances):")
        for key, rng in ranges.items():
            locs = " <-> ".join(sorted(key))
            print(f"  {locs}: {rng}")


def _read_trace(path: str) -> Optional[Trace]:
    """Load a trace file inside a ``traces.load`` span, or print one
    line to stderr and return None when the file is unreadable or
    malformed (the caller exits 2)."""
    try:
        with obs.span("traces.load") as span:
            trace = load_trace(path)
            span.annotate("events", len(trace))
        return trace
    except OSError as exc:
        print(f"cannot read trace {path!r}: {exc}", file=sys.stderr)
    except TraceFormatError as exc:
        print(f"{path}: {exc}", file=sys.stderr)
    return None


def _run_and_print(vindicator: Vindicator, trace, show_witness: bool,
                   as_json: bool = False) -> int:
    try:
        report = vindicator.run(trace)
    except SanitizerError as exc:
        print(exc, file=sys.stderr)
        return 1
    if as_json:
        with obs.span("report.document"):
            doc = report.to_document()
        with obs.span("report.emit"):
            write_document(doc, sys.stdout)
    else:
        _print_report(report, show_witness=show_witness)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    trace = _read_trace(args.trace)
    if trace is None:
        return 2
    vindicator = Vindicator(vindicate_all=args.vindicate_all,
                            policy=args.policy,
                            sanitize=args.sanitize,
                            variant=args.variant)
    return _run_and_print(vindicator, trace, args.witness,
                          as_json=args.json)


def _cmd_lint(args: argparse.Namespace) -> int:
    # Exit-code contract (shared with `scan`, documented above): 0 =
    # clean or warnings/notes only, 1 = error findings, 2 = unusable
    # input. `lint` accepts traces `analyze` rejects, so only I/O
    # failures are usage errors here.
    try:
        events, line_numbers = load_events(args.trace)
    except OSError as exc:
        print(f"cannot read trace {args.trace!r}: {exc}", file=sys.stderr)
        return 2
    diagnostics = lint_events(events)
    by_severity = {severity: 0 for severity in Severity}
    for diag in diagnostics:
        by_severity[diag.severity] += 1
    if args.json:
        doc = lint_document(args.trace, len(events), diagnostics,
                            line_numbers)
        write_document(doc, sys.stdout)
    else:
        for diag in diagnostics:
            line = (line_numbers[diag.event_index]
                    if 0 <= diag.event_index < len(line_numbers) else None)
            print(f"{args.trace}:{diag.format(line)}")
        print(f"{len(events)} events: "
              f"{by_severity[Severity.ERROR]} error(s), "
              f"{by_severity[Severity.WARNING]} warning(s), "
              f"{by_severity[Severity.NOTE]} note(s)")
    return 1 if by_severity[Severity.ERROR] else 0


def _cmd_scan(args: argparse.Namespace) -> int:
    from repro.static.pysrc import scan_path

    try:
        result = scan_path(args.path)
    except OSError as exc:
        print(f"cannot read {args.path!r}: {exc}", file=sys.stderr)
        return 2
    except SyntaxError as exc:
        print(f"cannot parse {args.path!r}: {exc}", file=sys.stderr)
        return 2
    if not result.reports and not result.failed:
        print(f"no Python files under {args.path!r}", file=sys.stderr)
        return 2
    if args.json:
        write_document(result.to_document(), sys.stdout)
        return 1 if result.error_count() else 0
    for path, message in sorted(result.failed.items()):
        print(f"{path}: skipped (syntax error: {message})",
              file=sys.stderr)
    for report in result.reports:
        module = report.module
        for finding in report.findings:
            print(f"{finding.a.file}:{finding.a.line}: {finding.code} "
                  f"{finding.severity}: {finding.message}")
        sites = module.all_sites()
        pruned = len(report.pruned_labels())
        print(f"{module.path}: {len(sites)} site(s), "
              f"{len(report.clusters)} path(s) "
              f"({len(report.candidate_labels())} race-candidate, "
              f"{pruned} pruned thread-local), "
              f"{len(report.findings)} finding(s)")
    return 1 if result.error_count() else 0


def _cmd_litmus(args: argparse.Namespace) -> int:
    names = [args.name] if args.name else list(LITMUS)
    for name in names:
        factory = LITMUS.get(name)
        if factory is None:
            print(f"unknown litmus trace {name!r}; available: "
                  f"{', '.join(LITMUS)}", file=sys.stderr)
            return 2
        print(f"=== {name} ===")
        vindicator = Vindicator(vindicate_all=True,
                                transitive_force=not name.startswith("figure4"),
                                sanitize=args.sanitize,
                                variant=args.variant)
        status = _run_and_print(vindicator, factory(), args.witness)
        if status:
            return status
        print()
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    from repro.runtime import execute, fast_path_filter
    from repro.runtime.workloads import WORKLOADS

    factory = WORKLOADS.get(args.name)
    if factory is None:
        print(f"unknown workload {args.name!r}; available: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    trace = execute(factory(scale=args.scale), seed=args.seed)
    if args.fast_path:
        trace, stats = fast_path_filter(trace)
        # Under --json stdout carries only the document.
        print(f"fast path removed {stats.removed} of {stats.original_events} "
              f"events ({stats.hit_rate:.0%})",
              file=sys.stderr if args.json else sys.stdout)
    vindicator = Vindicator(vindicate_all=args.vindicate_all,
                            sanitize=args.sanitize,
                            variant=args.variant)
    return _run_and_print(vindicator, trace, args.witness,
                          as_json=args.json)


def _profile_trace(args: argparse.Namespace):
    """Load (or execute) the profile target inside a ``profile.load`` span.

    The target is a trace file when a file of that name exists,
    otherwise a workload name. Returns ``None`` for an unknown target
    or an unreadable or malformed trace file.
    """
    from repro.runtime import execute, fast_path_filter
    from repro.runtime.workloads import WORKLOADS

    target = args.target
    is_file = os.path.exists(target)
    if not is_file and target not in WORKLOADS:
        print(f"unknown trace file or workload {target!r}; available "
              f"workloads: {', '.join(WORKLOADS)}", file=sys.stderr)
        return None
    with obs.span("profile.load") as load_span:
        if is_file:
            trace = _read_trace(target)
            if trace is None:
                return None
        else:
            trace = execute(WORKLOADS[target](scale=args.scale),
                            seed=args.seed)
        if args.fast_path:
            trace, _ = fast_path_filter(trace)
        load_span.annotate("events", len(trace))
    return trace


def _print_profile_summary(session: obs.ObsSession) -> None:
    reg = session.registry
    counters = reg.counters()
    if counters:
        width = max(len(name) for name in counters)
        print("counters:")
        for name in sorted(counters):
            print(f"  {name:<{width}}  {counters[name]}")
    gauges = reg.gauges()
    if gauges:
        width = max(len(name) for name in gauges)
        print("gauges:")
        for name in sorted(gauges):
            print(f"  {name:<{width}}  {gauges[name]}")


def _cmd_profile(args: argparse.Namespace) -> int:
    meta = {"command": f"profile {args.target}"}
    with obs.session(metrics_path=args.metrics, meta=meta,
                     deep_memory=args.deep_mem) as session:
        with obs.span(f"profile.{args.target}") as root:
            # Stamp the variant on the root span so A/B profiles are
            # self-describing.
            root.tag("variant", args.variant)
            trace = _profile_trace(args)
            if trace is None:
                return 2
            meta["provenance"] = dict(trace.provenance)
            vindicator = Vindicator(vindicate_all=args.vindicate_all,
                                    sanitize=args.sanitize,
                                    variant=args.variant)
            try:
                vindicator.run(trace)
            except SanitizerError as exc:
                print(exc, file=sys.stderr)
                return 1
        print(session.render_spans(min_ms=args.min_ms))
        _print_profile_summary(session)
        if args.metrics:
            print(f"metrics written to {args.metrics}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.serve.server import ServeDaemon

    try:
        daemon = ServeDaemon(
            unix_socket=args.socket, port=args.port, host=args.host,
            jobs=args.jobs, checkpoint_dir=args.checkpoint_dir,
            watch_dir=args.watch, metrics_port=args.metrics_port)
    except ValueError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    daemon.start()

    def _stop(signum: int, frame: object) -> None:
        daemon._stop.set()

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)

    if args.socket:
        print(f"listening on unix socket {args.socket}", file=sys.stderr)
    if daemon.tcp_address is not None:
        host, port = daemon.tcp_address
        print(f"listening on tcp {host}:{port}", file=sys.stderr)
    if daemon.metrics_address is not None:
        host, port = daemon.metrics_address
        print(f"metrics on http://{host}:{port}/metrics", file=sys.stderr)
    if args.watch:
        print(f"watching {args.watch} for *.trace files", file=sys.stderr)
    print(f"{args.jobs} shard(s); checkpoints in {daemon.checkpoint_dir}",
          file=sys.stderr)

    daemon.serve_forever()
    daemon.shutdown()
    for doc in daemon.final_checkpoints:
        print(f"checkpointed session {doc['session']!r} "
              f"({doc['events']} events) to {doc['path']}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="vindicator",
        description="Sound predictive data race detection (Vindicator, "
                    "PLDI 2018 reproduction)")
    parser.add_argument("--metrics", metavar="PATH", default=None,
                        help="enable observability and export metrics to "
                             "PATH (.jsonl streams span records, .json "
                             "writes a snapshot, .prom/.txt Prometheus "
                             "text)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_static_flags(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--sanitize", action="store_true",
                         help="cross-check detector races against the lockset "
                              "pre-analysis; exit 1 on violation")

    def add_variant_flags(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--variant", choices=VARIANTS, default=VARIANTS[0],
                         help="HB/WCP/DC detectors: 'fast' runs the epoch "
                              "detectors, 'reference' the detectors that "
                              "define the semantics; verdicts are "
                              "identical (default: fast)")

    analyze = sub.add_parser("analyze", help="analyze a text-format trace file")
    analyze.add_argument("trace", help="path to the trace file")
    analyze.add_argument("--vindicate-all", action="store_true",
                         help="vindicate every DC-race, not only DC-only ones")
    analyze.add_argument("--policy", choices=POLICIES,
                         default="latest", help="greedy construction policy")
    analyze.add_argument("--witness", action="store_true",
                         help="print witness traces for confirmed races")
    analyze.add_argument("--json", action="store_true",
                         help="emit the vindicator.analyze/1 JSON document "
                              "instead of the human-readable report")
    add_static_flags(analyze)
    add_variant_flags(analyze)
    analyze.set_defaults(func=_cmd_analyze)

    lint = sub.add_parser(
        "lint", help="lint a text-format trace file (collects all findings; "
                     "exit 0 clean/warnings, 1 on error-severity findings, "
                     "2 on usage failure)")
    lint.add_argument("trace", help="path to the trace file")
    lint.add_argument("--json", action="store_true",
                      help="emit the vindicator.lint/1 JSON document "
                           "instead of the human-readable report")
    lint.set_defaults(func=_cmd_lint)

    scan = sub.add_parser(
        "scan", help="source-level static race analysis over Python source "
                     "(file or package directory); exit 0 clean/warnings, "
                     "1 on error-severity findings, 2 on usage failure")
    scan.add_argument("path", help="Python file or package directory")
    scan.add_argument("--json", action="store_true",
                      help="emit the vindicator.scan/1 JSON document "
                           "(findings + instrumentation plan) instead of "
                           "the human-readable report")
    scan.set_defaults(func=_cmd_scan)

    litmus = sub.add_parser("litmus", help="run the paper's litmus executions")
    litmus.add_argument("name", nargs="?", help="litmus trace name "
                        f"({', '.join(LITMUS)})")
    litmus.add_argument("--witness", action="store_true")
    add_static_flags(litmus)
    add_variant_flags(litmus)
    litmus.set_defaults(func=_cmd_litmus)

    workload = sub.add_parser("workload", help="run a DaCapo-analog workload")
    workload.add_argument("name", help="workload name (e.g. xalan)")
    workload.add_argument("--seed", type=int, default=0)
    workload.add_argument("--scale", type=float, default=1.0)
    workload.add_argument("--fast-path", action="store_true",
                          help="apply the redundant-access fast path")
    workload.add_argument("--vindicate-all", action="store_true")
    workload.add_argument("--witness", action="store_true")
    workload.add_argument("--json", action="store_true",
                          help="emit the vindicator.analyze/1 JSON document "
                               "instead of the human-readable report")
    add_static_flags(workload)
    add_variant_flags(workload)
    workload.set_defaults(func=_cmd_workload)

    profile = sub.add_parser(
        "profile", help="run the pipeline with observability on and print "
                        "the per-phase span tree + metrics summary")
    profile.add_argument("target",
                         help="trace file path, or workload name")
    profile.add_argument("--seed", type=int, default=0,
                         help="scheduler seed (workload targets)")
    profile.add_argument("--scale", type=float, default=1.0,
                         help="workload scale factor (workload targets)")
    profile.add_argument("--fast-path", action="store_true",
                         help="apply the redundant-access fast path")
    profile.add_argument("--vindicate-all", action="store_true")
    profile.add_argument("--deep-mem", action="store_true",
                         help="also sample gc object counts at phase "
                              "boundaries (slower)")
    profile.add_argument("--min-ms", type=float, default=0.0,
                         help="hide spans shorter than this many ms")
    # Convenience: accept --metrics after the sub-command too. SUPPRESS
    # keeps the global flag's value when this one is absent.
    profile.add_argument("--metrics", metavar="PATH",
                         default=argparse.SUPPRESS,
                         help="also export metrics to PATH (same formats "
                              "as the global --metrics flag)")
    add_static_flags(profile)
    add_variant_flags(profile)
    profile.set_defaults(func=_cmd_profile)

    serve = sub.add_parser(
        "serve", help="run the streaming analysis daemon: framed NDJSON "
                      "sessions over unix/TCP sockets, a *.trace drop "
                      "directory, live /metrics, graceful drain with "
                      "final checkpoints (see docs/SERVING.md)")
    serve.add_argument("--socket", metavar="PATH", default=None,
                       help="unix-domain socket to listen on")
    serve.add_argument("--port", type=int, default=None, metavar="N",
                       help="TCP port to listen on (0 = ephemeral; the "
                            "chosen port is printed at startup)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address for --port and --metrics-port "
                            "(default: 127.0.0.1)")
    serve.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="shard sessions across N worker processes "
                            "(default: 1, in-process)")
    serve.add_argument("--watch", metavar="DIR", default=None,
                       help="also poll DIR for dropped *.trace files "
                            "(results land next to them as "
                            "*.result.json)")
    serve.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                       help="where drain/default checkpoints are written "
                            "(default: current directory)")
    serve.add_argument("--metrics-port", type=int, default=None,
                       metavar="N",
                       help="serve Prometheus /metrics and /healthz on "
                            "this HTTP port (0 = ephemeral)")
    serve.set_defaults(func=_cmd_serve)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    try:
        if args.metrics and args.func is not _cmd_profile:
            # profile manages its own observability session (always
            # enabled, --metrics only picks the export path).
            with obs.session(metrics_path=args.metrics,
                             meta={"command": args.command}):
                status = args.func(args)
        else:
            status = args.func(args)
        # Flush here, not at interpreter exit, so a closed pipe is
        # caught below instead of reported after main returns.
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (``| head``). Point stdout at devnull so
        # the interpreter's own final flush cannot fail again, and exit
        # like a C tool killed by SIGPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
