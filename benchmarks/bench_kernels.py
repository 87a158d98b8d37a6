"""Compiled clock kernels: steady-state speedup floors for the native
backend.

The compiled backend of :mod:`repro.core.kernels` exists to buy
constant factors on the per-event hot path — the fused per-access
kernels (``access_wcp`` / ``access_dc``), the fused sync-op kernels
(``acquire_*`` / ``release_*`` / ``fork_*`` / ``join_*``), and the
dense clock ops between them. This bench pins those wins:

The SmartTrack epoch detectors (the default detectors) run the Table 4
xalan stream under the ``python`` and ``compiled`` backends
back-to-back in one process, and the acceptance floors are asserted on
the *ratio*, so they are machine-speed independent. Since the DC edge
buffer landed, the graph-building configuration is fused too and
carries a floor of its own. Each run re-analyses a trace whose caches
are already warm, so these are steady-state figures; cold end-to-end
runs are the e2ebench's (``e2ebench/run.py``).

Timing hygiene: trace execution happens once per module in fixtures
and detector construction is hoisted out of the timed region —
``best_of`` times nothing but ``analyze`` (``begin_trace`` resets all
state), so the floors measure analysis, not I/O or object churn.

Results go to ``kernels.txt`` / ``BENCH_kernels.json``; the
``kernels-perf`` CI job builds the extension, runs this bench, and
uploads both. Skips cleanly when the extension is not built.
"""

import pytest

from repro.analysis.smarttrack import EpochDCDetector, EpochWCPDetector
from repro.core import kernels
from repro.obs.timing import best_of
from repro.runtime import execute
from repro.runtime.workloads import WORKLOADS

from harness import write_json, write_result

pytestmark = pytest.mark.skipif(
    not kernels.compiled_available(),
    reason="repro.core._kernels extension not built (pure-Python checkout)")


@pytest.fixture(scope="module")
def raw_trace():
    """The Table 4 xalan stream, unfiltered — the same trace the
    smarttrack floors are defined on. Executed once and
    shared across every row so the timed region is analysis only."""
    return execute(WORKLOADS["xalan"](scale=2.0), seed=1)


#: (label, floor, detector factory). Floors are the acceptance bar for
#: the fused per-event paths; all three configurations are fused now
#: that DC graph edges stage through the C-side edge buffer. The graph
#: configuration's floor is lower because the buffered edges still
#: drain into the Python ConstraintGraph at finish() on both backends,
#: diluting the per-event win.
KERNEL_CONFIGS = [
    ("WCP epoch", 1.5, lambda: EpochWCPDetector()),
    ("DC epoch (no graph)", 1.5,
     lambda: EpochDCDetector(build_graph=False)),
    ("DC epoch + graph G", 1.15,
     lambda: EpochDCDetector(build_graph=True)),
]

REPEATS = 7


def test_compiled_kernel_speedup(raw_trace):
    """python vs compiled backend on the per-event epoch detectors:
    assert the ≥ 1.5× floors and write ``BENCH_kernels.json``."""
    n = len(raw_trace)
    previous = kernels.active_backend()
    rows = []
    try:
        for label, floor, factory in KERNEL_CONFIGS:
            # One detector per backend, reused across repeats:
            # begin_trace resets all state, so timing covers analyze()
            # alone. The warm-up runs double as an end-to-end
            # verdict-identity check (the full contract lives in
            # tests/test_kernels_differential.py).
            kernels.set_backend("python")
            py_det = factory()
            py_report = py_det.analyze(raw_trace)
            py_time = best_of(lambda: py_det.analyze(raw_trace),
                              repeats=REPEATS)
            kernels.set_backend("compiled")
            c_det = factory()
            c_report = c_det.analyze(raw_trace)
            assert ([(r.first.eid, r.second.eid) for r in py_report.races]
                    == [(r.first.eid, r.second.eid) for r in c_report.races]
                    ), f"{label}: compiled backend changed the race set"
            assert py_report.counters == c_report.counters, \
                f"{label}: compiled backend changed the counters"
            c_time = best_of(lambda: c_det.analyze(raw_trace),
                             repeats=REPEATS)
            rows.append((label, floor, n / py_time, n / c_time,
                         py_time / c_time))
    finally:
        kernels.set_backend(previous)

    lines = [f"Compiled clock kernels on the {n}-event raw xalan trace "
             f"(best of {REPEATS}, python vs compiled backend)",
             f"{'configuration':22s} | {'python ev/s':>12s} | "
             f"{'compiled ev/s':>13s} | {'speedup':>8s} | {'floor':>6s}",
             "-" * 75]
    for label, floor, py_eps, c_eps, ratio in rows:
        floor_cell = f"{floor:5.1f}x" if floor is not None else "     -"
        lines.append(f"{label:22s} | {py_eps:12,.0f} | {c_eps:13,.0f} | "
                     f"{ratio:7.2f}x | {floor_cell}")
    write_result("kernels.txt", "\n".join(lines))
    write_json("BENCH_kernels.json", {
        "trace": {"workload": "xalan", "scale": 2.0, "seed": 1, "events": n},
        "best_of": REPEATS,
        "rows": [
            {"configuration": label,
             "floor": floor,
             "python_events_per_sec": round(py_eps, 1),
             "compiled_events_per_sec": round(c_eps, 1),
             "speedup": round(ratio, 3)}
            for label, floor, py_eps, c_eps, ratio in rows],
    })
    for label, floor, _, _, ratio in rows:
        if floor is not None:
            assert ratio >= floor, \
                f"{label}: {ratio:.2f}x below the {floor:.1f}x floor"
