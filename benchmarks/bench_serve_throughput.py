"""Serving throughput — what the streaming service costs over batch.

Four measurements, same events (avrora at ``SCALE``), all with GC on:

* ``batch analyze`` — the single-shot pipeline (``Vindicator().run``,
  the epoch detectors), the ceiling the service is judged against;
  sessions run the same detectors, fed per event;
* ``inline session`` — :class:`~repro.serve.session.SessionAnalyzer`
  fed line chunks directly: streaming parse + detectors + windowed GC,
  no sockets.  The gap to batch is the price of incremental analysis;
* ``daemon unix jobs=1`` — the full service path: framed NDJSON over a
  unix socket into one shard process.  The gap to inline is protocol +
  IPC overhead;
* ``daemon unix jobs=2 x2 clients`` — two concurrent client threads
  streaming distinct sessions sharded across two workers; aggregate
  events/sec shows ingestion scaling past a single shard.

A fifth row times checkpoint write + resume for the fully-fed session
(the drain/restore path), with the packed artifact's size on disk.

Results land in ``benchmarks/results/serve_throughput.txt`` and, for
CI diffing, ``benchmarks/results/BENCH_serve.json``.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List

from repro.obs.timing import best_of
from repro.runtime import execute
from repro.runtime.workloads import WORKLOADS
from repro.serve.checkpoint import resume_session, write_checkpoint
from repro.serve.client import ServeClient
from repro.serve.server import ServeDaemon
from repro.serve.session import SessionAnalyzer, SessionConfig
from repro.traces.io import format_event
from repro.vindicate.vindicator import Vindicator

from harness import write_json, write_result

#: ~9.6k events: enough frames and GC sweeps to measure the steady
#: state, small enough that best-of-3 across five configs stays fast.
SCALE = 4.0
SEED = 0
#: Frames of this many lines — a realistic client batch (the directory
#: watcher uses 2000; smaller here so the socket path sees many frames).
CHUNK_LINES = 500
GC_WINDOW = 1024
BEST_OF = 3


def _chunks(lines: List[str], size: int) -> List[List[str]]:
    return [lines[i:i + size] for i in range(0, len(lines), size)]


def _stream_inline(lines: List[str], name: str) -> SessionAnalyzer:
    analyzer = SessionAnalyzer(SessionConfig(name=name,
                                             gc_window=GC_WINDOW))
    for chunk in _chunks(lines, CHUNK_LINES):
        analyzer.feed_lines(chunk)
    return analyzer


def _stream_daemon(daemon: ServeDaemon, name: str,
                   lines: List[str]) -> None:
    with ServeClient(path=daemon.unix_socket) as client:
        client.hello(name, config={"gc_window": GC_WINDOW})
        for chunk in _chunks(lines, CHUNK_LINES):
            client.events(name, chunk)


def test_serve_throughput(tmp_path):
    trace = execute(WORKLOADS["avrora"](scale=SCALE), seed=SEED)
    lines = [format_event(e) for e in trace]
    n = len(lines)
    rows: List[Dict[str, Any]] = []

    def row(configuration: str, seconds: float, events: int = n) -> None:
        rows.append({
            "configuration": configuration,
            "events": events,
            "seconds": round(seconds, 4),
            "events_per_sec": round(events / seconds, 1),
        })

    # Batch reference: the whole pipeline minus vindication (the serve
    # ingestion path being measured ends at finish()'s doorstep too).
    row("batch analyze", best_of(
        lambda: Vindicator().run(trace), repeats=BEST_OF))

    # Inline streaming session (parse + detectors + GC, no sockets).
    counter = [0]

    def inline() -> None:
        counter[0] += 1
        _stream_inline(lines, f"inline-{counter[0]}")

    row("inline session", best_of(inline, repeats=BEST_OF))

    # Full daemon path, one shard.
    daemon1 = ServeDaemon(unix_socket=str(tmp_path / "serve1.sock"),
                          jobs=1, checkpoint_dir=str(tmp_path / "ckpt1"))
    daemon1.start()
    try:
        def one_shard() -> None:
            counter[0] += 1
            _stream_daemon(daemon1, f"uni-{counter[0]}", lines)

        row("daemon unix jobs=1", best_of(one_shard, repeats=BEST_OF))
    finally:
        daemon1.shutdown()

    # Two shards, two concurrent clients: aggregate ingestion rate.
    daemon2 = ServeDaemon(unix_socket=str(tmp_path / "serve2.sock"),
                          jobs=2, checkpoint_dir=str(tmp_path / "ckpt2"))
    daemon2.start()
    try:
        def two_clients() -> None:
            counter[0] += 1
            threads = [
                threading.Thread(
                    target=_stream_daemon,
                    args=(daemon2, f"duo-{counter[0]}-{i}", lines))
                for i in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        row("daemon unix jobs=2 x2 clients",
            best_of(two_clients, repeats=BEST_OF), events=2 * n)
    finally:
        daemon2.shutdown()

    # Checkpoint round trip for a fully-fed session.
    analyzer = _stream_inline(lines, "ckpt")
    ckpt = tmp_path / "bench.vckp"
    start = time.perf_counter()
    size = write_checkpoint(analyzer, str(ckpt))
    write_seconds = time.perf_counter() - start
    start = time.perf_counter()
    resumed = resume_session(str(ckpt))
    resume_seconds = time.perf_counter() - start
    assert resumed.hasher.hexdigest() == analyzer.hasher.hexdigest()
    checkpoint = {
        "events": n,
        "bytes": size,
        "write_seconds": round(write_seconds, 4),
        "resume_seconds": round(resume_seconds, 4),
        "resume_events_per_sec": round(n / resume_seconds, 1),
    }

    # The service must not be catastrophically slower than batch; the
    # streaming session historically lands within ~2-3x (per-event
    # dispatch + GC sweeps), sockets add modest constant cost per frame.
    batch_rate = rows[0]["events_per_sec"]
    inline_rate = rows[1]["events_per_sec"]
    assert inline_rate >= batch_rate / 10

    width = max(len(r["configuration"]) for r in rows)
    lines_out = [
        f"serve throughput — avrora scale={SCALE} seed={SEED}, "
        f"{n} events, chunks of {CHUNK_LINES}, gc_window={GC_WINDOW}, "
        f"best of {BEST_OF}",
        "",
        f"{'configuration':<{width}}  {'events':>7}  {'seconds':>8}  "
        f"{'events/s':>10}",
    ]
    for r in rows:
        lines_out.append(
            f"{r['configuration']:<{width}}  {r['events']:>7}  "
            f"{r['seconds']:>8.4f}  {r['events_per_sec']:>10.1f}")
    lines_out += [
        "",
        f"checkpoint: {checkpoint['bytes']} bytes for {n} events, "
        f"write {checkpoint['write_seconds']:.4f}s, "
        f"resume {checkpoint['resume_seconds']:.4f}s "
        f"({checkpoint['resume_events_per_sec']:.1f} events/s replay)",
    ]
    write_result("serve_throughput.txt", "\n".join(lines_out))
    write_json("BENCH_serve.json", {
        "workload": "avrora",
        "scale": SCALE,
        "seed": SEED,
        "events": n,
        "chunk_lines": CHUNK_LINES,
        "gc_window": GC_WINDOW,
        "best_of": BEST_OF,
        "rows": rows,
        "checkpoint": checkpoint,
    })
