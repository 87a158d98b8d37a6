"""Experiment E5 — Table 4 (reconstructed): run-time cost of the analyses.

The paper's performance section (truncated in the provided text)
compares the run-time overhead of HB, WCP, and Vindicator (DC analysis
plus constraint-graph construction) in RoadRunner on the JVM. Absolute
JVM overheads are out of scope for a Python reproduction (repro band:
"too slow for performance evaluation"), so this table reports what is
preserved: per-analysis event throughput and the *relative* cost
ordering on identical traces

    replay < HB < WCP < DC < DC+graph

plus VindicateRace time per race. ``pytest-benchmark`` provides the timing machinery; one
benchmark per configuration runs on the same xalan-analog trace. The
summary table uses :mod:`repro.obs.timing` for wall time and
:func:`repro.obs.memory.traced_heap_peak_kb` for a per-configuration
heap peak (a peak-RSS *delta* reads 0 for every configuration after the
first benchmark has raised the process high-water mark; the traced heap
peak attributes correctly regardless of run order — timing is taken
from separate untraced runs since tracemalloc slows allocation).

The SmartTrack-style epoch/ownership variants
(:mod:`repro.analysis.smarttrack`) appear both as extra rows in the
Table 4 analog and in a dedicated reference-vs-epoch comparison
(``test_smarttrack_speedup``) that asserts the PR's speedup floors and
writes machine-readable ``BENCH_smarttrack.json``. These are
steady-state numbers: every configuration re-analyses a trace whose
caches are already warm. Cold end-to-end runs are measured by the
e2ebench (``e2ebench/run.py``).
"""

import pytest

from repro.analysis.dc import DCDetector
from repro.analysis.hb import HBDetector
from repro.analysis.smarttrack import (EpochDCDetector, EpochHBDetector,
                                       EpochWCPDetector)
from repro.analysis.wcp import WCPDetector
from repro.obs.memory import traced_heap_peak_kb
from repro.obs.timing import best_of
from repro.runtime import execute, fast_path_filter
from repro.runtime.workloads import WORKLOADS

from harness import write_json, write_result


@pytest.fixture(scope="module")
def perf_trace():
    trace = execute(WORKLOADS["xalan"](scale=2.0), seed=1)
    filtered, _ = fast_path_filter(trace)
    return filtered


@pytest.fixture(scope="module")
def raw_trace():
    """The same xalan trace *before* fast-path filtering — the full
    event stream an online detector ingests.  The epoch fast paths
    accelerate exactly the thread-local accesses the filter strips, so
    the SmartTrack speedup floors are defined on this stream."""
    return execute(WORKLOADS["xalan"](scale=2.0), seed=1)


def replay(trace):
    """Baseline: iterate the trace doing no analysis work."""
    count = 0
    for _ in trace:
        count += 1
    return count


CONFIGS = [
    ("replay (no analysis)", None),
    ("HB", lambda: HBDetector()),
    ("HB epoch", lambda: EpochHBDetector()),
    ("WCP", lambda: WCPDetector()),
    ("WCP epoch", lambda: EpochWCPDetector()),
    ("DC (no graph)", lambda: DCDetector(build_graph=False)),
    ("DC epoch (no graph)", lambda: EpochDCDetector(build_graph=False)),
    ("DC + graph G", lambda: DCDetector(build_graph=True)),
    ("DC epoch + graph G", lambda: EpochDCDetector(build_graph=True)),
]


def _run(trace, factory):
    if factory is None:
        return replay(trace)
    detector = factory()
    detector.analyze(trace)
    return detector



@pytest.mark.parametrize("label,factory", CONFIGS,
                         ids=[label for label, _ in CONFIGS])
def test_analysis_throughput(perf_trace, benchmark, label, factory):
    benchmark(lambda: _run(perf_trace, factory))


def test_table4_summary(perf_trace, benchmark):
    """Build the Table 4 analog: events/sec, wall time, per-config
    heap peak, and slowdown vs replay — written both as ``table4.txt``
    and machine-readable ``BENCH_table4.json``."""
    rows = []
    base_time = None
    for label, factory in CONFIGS:
        # Heap peak from one traced run (attributable per configuration
        # regardless of run order — see module docstring); wall time
        # from separate untraced runs, best-of-3.
        _, heap_kb = traced_heap_peak_kb(lambda: _run(perf_trace, factory))
        elapsed = best_of(lambda: _run(perf_trace, factory), repeats=3)
        if base_time is None:
            base_time = elapsed
        rows.append((label, elapsed, len(perf_trace) / elapsed,
                     elapsed / base_time, heap_kb))
    lines = [f"Table 4 (analog): analysis cost on a {len(perf_trace)}-event "
             f"xalan trace",
             f"{'configuration':22s} | {'events/sec':>12s} | "
             f"{'time (ms)':>10s} | {'heap peak kB':>12s} | "
             f"{'vs replay':>9s}",
             "-" * 78]
    for label, elapsed, throughput, slowdown, heap_kb in rows:
        lines.append(f"{label:22s} | {throughput:12,.0f} | "
                     f"{elapsed * 1e3:10.1f} | {heap_kb:12d} | "
                     f"{slowdown:8.1f}x")
    # VindicateRace time per race, on the same trace (best of 3 runs —
    # per-race wall times are witness-check dominated and noisy).
    from repro.vindicate.vindicator import Vindicator
    report = min((Vindicator().run(perf_trace) for _ in range(3)),
                 key=lambda r: r.vindication_seconds)
    if report.vindications:
        per_race = [v.elapsed_seconds * 1e3 for v in report.vindications]
        lines.append("")
        lines.append(f"VindicateRace: {len(per_race)} DC-only races, "
                     f"{min(per_race):.1f}-{max(per_race):.1f} ms per race")
        counters = report.dc.counters
        lines.append("reachability cache: "
                     f"{counters.get('reach_hits', 0):,} hits, "
                     f"{counters.get('reach_misses', 0):,} misses, "
                     f"{counters.get('reach_invalidations', 0):,} "
                     "invalidations")
    write_result("table4.txt", "\n".join(lines))
    write_json("BENCH_table4.json", {
        "trace": {"workload": "xalan", "scale": 2.0, "seed": 1,
                  "events": len(perf_trace)},
        "rows": [
            {"configuration": label,
             "events_per_sec": round(throughput, 1),
             "time_ms": round(elapsed * 1e3, 3),
             "heap_peak_kb": heap_kb,
             "slowdown_vs_replay": round(slowdown, 2)}
            for label, elapsed, throughput, slowdown, heap_kb in rows],
    })

    throughputs = {label: tp for label, _, tp, _, _ in rows}
    # The relative ordering the paper's Table 4 shape implies.
    assert throughputs["replay (no analysis)"] > throughputs["HB"]
    assert throughputs["HB"] > throughputs["WCP"]
    assert throughputs["WCP"] > throughputs["DC + graph G"] * 0.5
    benchmark(lambda: replay(perf_trace))


#: Reference-vs-epoch pairs and the speedup floor each must clear
#: (the PR's acceptance criteria; the epoch variants are
#: verdict-identical, so this is pure throughput).
SMARTTRACK_PAIRS = [
    ("WCP", 1.8,
     lambda: WCPDetector(), lambda: EpochWCPDetector()),
    ("DC (no graph)", 2.0,
     lambda: DCDetector(build_graph=False),
     lambda: EpochDCDetector(build_graph=False)),
    ("DC + graph G", 1.5,
     lambda: DCDetector(build_graph=True),
     lambda: EpochDCDetector(build_graph=True)),
]


def test_smarttrack_speedup(perf_trace, raw_trace, benchmark):
    """Reference vs epoch/ownership detectors on the same trace:
    assert the PR's speedup floors (WCP >= 1.8x, DC no-graph >= 2.0x)
    and write ``smarttrack.txt`` / ``BENCH_smarttrack.json``.

    The floors are asserted on the *raw* event stream (see
    ``raw_trace``); the fast-path-filtered trace is reported alongside
    without floors — it is sync-op-heavy by construction, so the epoch
    access paths have less to accelerate there.  Both sides of each
    pair are measured back-to-back in this same process (best of 5), so
    the ratio is robust to absolute machine speed.
    """
    n = len(raw_trace)
    rows = []
    filtered_rows = []
    stats = {}
    for label, floor, ref_factory, fast_factory in SMARTTRACK_PAIRS:
        # Warm-up runs also double-check verdict identity end to end.
        ref_report = ref_factory().analyze(raw_trace)
        fast_det = fast_factory()
        fast_report = fast_det.analyze(raw_trace)
        assert ([(r.first.eid, r.second.eid) for r in ref_report.races]
                == [(r.first.eid, r.second.eid) for r in fast_report.races]), \
            f"{label}: epoch variant changed the race set"
        stats[label] = fast_det.fast_stats()
        ref = best_of(lambda: ref_factory().analyze(raw_trace), repeats=5)
        fast = best_of(lambda: fast_factory().analyze(raw_trace), repeats=5)
        rows.append((label, floor, n / ref, n / fast, ref / fast))
        fref = best_of(lambda: ref_factory().analyze(perf_trace), repeats=5)
        ffast = best_of(lambda: fast_factory().analyze(perf_trace),
                        repeats=5)
        filtered_rows.append((label, len(perf_trace) / fref,
                              len(perf_trace) / ffast, fref / ffast))
    lines = [f"SmartTrack-style epoch/ownership fast paths on the {n}-event "
             f"raw xalan trace (best of 5)",
             f"{'configuration':22s} | {'ref ev/s':>12s} | "
             f"{'epoch ev/s':>12s} | {'speedup':>8s} | {'floor':>6s}",
             "-" * 74]
    for label, floor, ref_eps, fast_eps, ratio in rows:
        lines.append(f"{label:22s} | {ref_eps:12,.0f} | {fast_eps:12,.0f} | "
                     f"{ratio:7.2f}x | {floor:5.1f}x")
    lines.append("")
    lines.append(f"after fast-path filtering ({len(perf_trace)} events, "
                 "sync-op-heavy; no floors):")
    for label, ref_eps, fast_eps, ratio in filtered_rows:
        lines.append(f"{label:22s} | {ref_eps:12,.0f} | {fast_eps:12,.0f} | "
                     f"{ratio:7.2f}x |      -")
    dc_stats = stats["DC + graph G"]
    lines.append("")
    lines.append("DC epoch-state counters on this trace: "
                 f"{dc_stats['epoch_exclusive_hits']:,} exclusive-stage hits, "
                 f"{dc_stats['epoch_promotions']:,} promotions, "
                 f"{dc_stats['epoch_write_gate_hits']:,} write-gate + "
                 f"{dc_stats['epoch_read_gate_hits']:,} read-gate skips, "
                 f"{dc_stats['ownership_rule_b_skips']:,} rule-(b) skips")
    lines.append("snapshot reuse (satellite micro-fix): "
                 f"{dc_stats['snapshots_copied']:,} copied vs "
                 f"{dc_stats['snapshots_reused']:,} reused "
                 "(version-gated, no redundant clock.copy() churn)")
    write_result("smarttrack.txt", "\n".join(lines))
    write_json("BENCH_smarttrack.json", {
        "trace": {"workload": "xalan", "scale": 2.0, "seed": 1, "events": n,
                  "filtered_events": len(perf_trace)},
        "best_of": 5,
        "rows": [
            {"configuration": label,
             "floor": floor,
             "reference_events_per_sec": round(ref_eps, 1),
             "epoch_events_per_sec": round(fast_eps, 1),
             "speedup": round(ratio, 3)}
            for label, floor, ref_eps, fast_eps, ratio in rows],
        "filtered_rows": [
            {"configuration": label,
             "reference_events_per_sec": round(ref_eps, 1),
             "epoch_events_per_sec": round(fast_eps, 1),
             "speedup": round(ratio, 3)}
            for label, ref_eps, fast_eps, ratio in filtered_rows],
        "fast_stats": stats,
    })
    for label, floor, _, _, ratio in rows:
        assert ratio >= floor, \
            f"{label}: {ratio:.2f}x below the {floor:.1f}x floor"
    benchmark(lambda: EpochDCDetector(build_graph=True).analyze(raw_trace))
