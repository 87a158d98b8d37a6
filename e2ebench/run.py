"""Cold end-to-end benchmark of ``vindicator analyze`` and ``vindicator serve``.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload cold-analysis --seed 1 --seconds 30 --trace 0

The program is driven only from outside. ``cold-*`` workloads spawn a
fresh ``python -m repro analyze <trace> --json`` per sample, send its
stdout to a file and parse it after the clock stops; ``serve-stream``
spawns a ``python -m repro serve --jobs 1`` daemon per sample and feeds
it the trace's lines from one closed-loop client, one ``events`` frame
at a time, then ``finish``. Each process's peak RSS is its own, read
from ``os.wait4`` on its pid. On Linux a child's peak RSS starts from
its parent's high-water mark, so this process never holds a trace or a
report: set-up and every verdict check run in ``inputs.py`` children,
and ``info.bench_maxrss_mb`` shows the floor.

Timings are reported in reference-host seconds. The shared host this
was built on runs the same process on the same trace anywhere from 1.5 s
to 2.7 s as its neighbours come and go, in regimes lasting tens of
seconds, and one core can be ~1.3x slower than the other. So each
sample is pinned to a CPU (alternating; a serve client shares its
daemon's), a fixed pure-Python probe loop
is timed on that CPU just before and just after it, and the sample's
wall is scaled by ``REFERENCE_PROBE_S`` / the probes' mean. The raw
walls are on the info line.

Set-up, outside every metric: byte-compile the sources, generate the
input trace from ``--seed`` into a per-run directory under
``.bench_tmp/``, and take the oracle's verdict digest: the one pinned in
``expected_digests.json`` for a listed seed, whose input must then hash
to the pinned trace, else ``inputs.oracle_digest`` in-process. Every
report the program produces is checked against it; a mismatch, a
nonzero exit, a timeout or a protocol error is a failed operation.

``--trace 0`` prints the end-to-end metrics, measured untraced.
``--trace 1`` prints the per-layer metrics: it alternates untraced and
traced in-process passes (``pipeline.py``) in fresh processes, reports
the layer self times of the fastest traced pass, the traced-minus-
untraced overhead, and the start-up import costs from
``python -X importtime -m repro --help``. It also times a few real
``analyze`` processes (or one daemon stream) and puts their raw walls
next to the untraced passes' on the info line.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
run's provenance and secondary figures.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".bench_tmp")
PYTHON = sys.executable

#: Per-process and per-request limit before an operation counts failed.
TIMEOUT_S = 60.0
#: ``setup_s`` is the median of at least this many start-ups per run.
MIN_SETUP_SAMPLES = 5
#: ``python -X importtime`` runs per traced run.
IMPORT_SAMPLES = 3
#: ``analyze`` processes per traced run, to compare with the passes.
CLI_SAMPLES = 3
#: ``speed_probe()``'s time on the quiet reference host: a sample whose
#: probes took this long is reported at its measured wall.
REFERENCE_PROBE_S = 0.05

#: Span name (``pipeline.py``) -> per-layer self-time metric.
SPAN_METRICS = {
    "traces.load": "traces.load_s",
    "analysis.hb": "analysis.hb_s",
    "analysis.wcp": "analysis.wcp_s",
    "analysis.dc": "analysis.dc_s",
    "graph.checkpoint": "graph.checkpoint_s",
    "graph.restore": "graph.restore_s",
    "vindicate.add_constraints": "vindicate.add_constraints_s",
    "vindicate.construct": "vindicate.construct_s",
    "vindicate.check_witness": "vindicate.check_witness_s",
    "vindicate.race": "vindicate.race_self_s",
    "vindicate.finalize": "vindicate.finalize_self_s",
    "report.to_document": "report.to_document_s",
    "report.json": "report.json_s",
    "serve.feed": "serve.feed_s",
    "serve.gc": "serve.gc_s",
    "serve.finish": "serve.finish_s",
}

from inputs import FRAME_LINES, WORKLOADS, trace_lines


def speed_probe() -> float:
    """Seconds for a fixed pure-Python loop of dict and integer work,
    the kind of work the program's hot loops do."""
    table: Dict[int, int] = {}
    start = time.perf_counter()
    for i in range(300_000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(values: List[float], pct: int) -> float:
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=100)[pct - 1]


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if "_ms" in name:
        return "ms"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


class Run:
    """One benchmark run: its scratch directory, environment, oracle
    and operation counts."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        os.makedirs(TMP_ROOT, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT)
        self.env = dict(os.environ, PYTHONPATH=SRC)
        # The benchmark runs the CLI's defaults, whatever the caller set.
        self.env.pop("VINDICATOR_KERNELS", None)
        self.attempted = 0
        self.failed = 0
        self.cpus = sorted(os.sched_getaffinity(0))
        self.spawned: Dict[str, int] = {}
        self.probes: List[float] = []
        self.backends: set = set()
        self.input: Dict[str, Any] = {}
        self.oracle: Dict[str, Any] = {}

    # -- set-up -----------------------------------------------------------
    def set_up(self) -> None:
        # Start-ups then read bytecode as an installed package would.
        for directory in (SRC, HERE):
            compileall.compile_dir(directory, quiet=2)
        prepared = self.inputs("prepare", self.workload, str(self.seed),
                               self.tmp)
        self.input = prepared["input"]
        self.oracle = prepared["oracle"]
        if prepared["pin_mismatch"]:
            self.attempted += 1
            self.fail("input differs from its pin in expected_digests.json: "
                      "the trace generator changed")

    def inputs(self, *args: str) -> Dict[str, Any]:
        """``inputs.py`` in a child process, so that this one, whose
        high-water RSS every child starts from, stays small."""
        proc = subprocess.run(
            [PYTHON, os.path.join(HERE, "inputs.py"), *args],
            stdout=subprocess.PIPE, env=self.env, cwd=ROOT, check=True,
            timeout=2 * TIMEOUT_S)
        result: Dict[str, Any] = json.loads(proc.stdout)
        return result

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def next_cpu(self, kind: str) -> int:
        """The CPU for the next process of ``kind``: they alternate, so
        a slow core does not hold a whole run."""
        count = self.spawned.get(kind, 0)
        self.spawned[kind] = count + 1
        return self.cpus[count % len(self.cpus)]

    def probe(self, cpu: int) -> float:
        """Pin this process to ``cpu`` (a child spawned now inherits
        it) and time ``speed_probe`` there."""
        os.sched_setaffinity(0, {cpu})
        seconds = speed_probe()
        self.probes.append(seconds)
        return seconds

    def unpin(self) -> None:
        os.sched_setaffinity(0, self.cpus)

    # -- operations ---------------------------------------------------------
    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED: {what}", file=sys.stderr)

    def check(self, path: str, what: str) -> bool:
        """Check the report in the file at ``path`` against the oracle."""
        try:
            found = self.inputs("digest", path)
        except subprocess.SubprocessError:
            self.fail(f"{what}: no readable report")
            return False
        self.backends.add(found["backend"])
        if found["digest"] != self.oracle["digest"]:
            self.fail(f"{what}: verdicts differ from the oracle's")
            return False
        return True

    def spawn(self, kind: str, argv: List[str],
              stdout: str) -> Tuple[float, float, int, float]:
        """Run ``argv`` to completion on the next CPU for ``kind``;
        returns (wall s, own peak RSS MB, exit code, speed scale). The
        wall clock covers spawn to exit; the scale converts it to
        reference-host seconds."""
        cpu = self.next_cpu(kind)
        before = self.probe(cpu)
        with open(stdout, "wb") as out, \
                open(stdout + ".err", "wb") as err:
            start = time.perf_counter()
            try:
                proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                        env=self.env, cwd=ROOT)
            finally:
                self.unpin()
            timer = threading.Timer(TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            after = self.probe(cpu)
        finally:
            self.unpin()
        scale = 2 * REFERENCE_PROBE_S / (before + after)
        return wall, usage.ru_maxrss / 1024, proc.returncode, scale

    def repro(self, args: List[str], stdout: str,
              python_flags: Tuple[str, ...] = ()
              ) -> Optional[Tuple[float, float, float]]:
        """One ``python -m repro`` process: (wall, RSS, scale), or None
        when it failed."""
        self.attempted += 1
        wall, rss, code, scale = self.spawn(
            args[0], [PYTHON, *python_flags, "-m", "repro", *args], stdout)
        if code != 0:
            self.fail(f"repro {' '.join(args)} exited with {code}")
            return None
        return wall, rss, scale

    def analyze(self) -> Optional[Tuple[float, float, float]]:
        out = os.path.join(self.tmp, "analyze.json")
        sample = self.repro(["analyze", self.input["path"], "--json"], out)
        if sample is None:
            return None
        return sample if self.check(out, "analyze") else None

    def start_up(self) -> Optional[float]:
        """One ``--help`` start-up, in reference-host seconds."""
        sample = self.repro(["--help"], os.path.join(self.tmp, "help.txt"))
        return None if sample is None else sample[0] * sample[2]

    def pipeline(self, traced: bool) -> Optional[Dict[str, Any]]:
        """One in-process pass (``pipeline.py``) in a fresh process."""
        self.attempted += 1
        out = os.path.join(self.tmp, "pass.json")
        mode = "serve" if self.workload == "serve-stream" else "cold"
        argv = [PYTHON, os.path.join(HERE, "pipeline.py"), "--mode", mode,
                "--trace-file", self.input["path"],
                "--traced", str(int(traced)), "--out", out]
        wall, _, code, _ = self.spawn("pipeline", argv, out + ".log")
        if code != 0:
            self.fail(f"pipeline pass (traced={traced}) exited with {code}")
            return None
        with open(out, encoding="utf-8") as handle:
            result: Dict[str, Any] = json.load(handle)
        self.backends.add(result["backend"])
        if result["digest"] != self.oracle["digest"]:
            self.fail(f"pipeline pass (traced={traced}): verdicts differ "
                      "from the oracle's")
            return None
        result["process_wall_s"] = wall
        return result

    def import_times(self) -> Optional[Tuple[float, float]]:
        """(repro, numpy) cumulative import seconds of one CLI start-up."""
        out = os.path.join(self.tmp, "importtime.txt")
        if self.repro(["--help"], out, python_flags=("-X", "importtime")) \
                is None:
            return None
        repro_us = numpy_us = 0
        with open(out + ".err", encoding="utf-8") as handle:
            for line in handle:
                parts = line.split("|")
                if len(parts) != 3 or not parts[1].strip().isdigit():
                    continue
                cumulative = int(parts[1])
                name = parts[2].rstrip()
                package = name.strip()
                top_level = name[1:2] != " "
                if top_level and package.split(".")[0] == "repro":
                    repro_us += cumulative
                if package == "numpy" and not numpy_us:
                    numpy_us = cumulative
        return repro_us / 1e6, numpy_us / 1e6


class StreamClient:
    """A closed-loop NDJSON client over the daemon's unix socket.

    The benchmark's own, not ``repro.serve.client``: that one is part of
    the program under test and schema-validates every reply inside the
    timed round trip."""

    def __init__(self, path: str):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self.sock.settimeout(TIMEOUT_S)
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise
        self.reader = self.sock.makefile("rb")

    def request(self, frame: bytes) -> bytes:
        """Send one encoded frame and return the raw reply line."""
        self.sock.sendall(frame)
        line = self.reader.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        return line

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def _frame(doc: Dict[str, Any]) -> bytes:
    return json.dumps(doc, separators=(",", ":")).encode("utf-8") + b"\n"


def _ok(line: bytes) -> Dict[str, Any]:
    reply: Dict[str, Any] = json.loads(line)
    if not reply.get("ok"):
        raise RuntimeError(f"error reply: {reply.get('error')}")
    return reply


def serve_stream(run: Run, frames: List[bytes]) -> Optional[Dict[str, Any]]:
    """One daemon life: spawn, ping, one session, shutdown, reap."""
    path = os.path.relpath(os.path.join(run.tmp, "serve.sock"), ROOT)
    argv = [PYTHON, "-m", "repro", "serve", "--socket", path, "--jobs", "1",
            "--checkpoint-dir", run.tmp]
    session = "bench"
    cpu = run.next_cpu("serve")
    # The client stays on the daemon's CPU until the last probe: each
    # frame's round trip then depends on the one CPU the probes time.
    before = run.probe(cpu)
    try:
        with open(os.path.join(run.tmp, "serve.err"), "wb") as err:
            start = time.perf_counter()
            daemon = subprocess.Popen(argv, stdout=subprocess.DEVNULL,
                                      stderr=err, env=run.env, cwd=ROOT)
    except BaseException:
        run.unpin()
        raise
    timer = threading.Timer(TIMEOUT_S, daemon.kill)
    timer.start()
    client: Optional[StreamClient] = None
    sample: Dict[str, Any] = {"frame_s": []}
    what = "serve: start-up"
    run.attempted += 1
    try:
        while client is None:
            if daemon.poll() is not None:
                raise RuntimeError(f"daemon exited with {daemon.returncode}")
            try:
                client = StreamClient(path)
            except (FileNotFoundError, ConnectionRefusedError):
                time.sleep(0.002)
        _ok(client.request(_frame({"op": "ping"})))
        sample["setup_s"] = time.perf_counter() - start
        run.attempted += 1
        what = "serve: hello"
        _ok(client.request(_frame({"op": "hello", "session": session})))
        first = time.perf_counter()
        for number, frame in enumerate(frames):
            run.attempted += 1
            what = f"serve: events frame {number}"
            sent = time.perf_counter()
            line = client.request(frame)
            sample["frame_s"].append(time.perf_counter() - sent)
            _ok(line)
        run.attempted += 1
        what = "serve: finish"
        sent = time.perf_counter()
        line = client.request(_frame({"op": "finish", "session": session}))
        done = time.perf_counter()
        sample["finish_s"] = done - sent
        sample["wall_s"] = done - first
        try:
            after = run.probe(cpu)
        finally:
            run.unpin()
        sample["scale"] = 2 * REFERENCE_PROBE_S / (before + after)
        reply = os.path.join(run.tmp, "finish.json")
        with open(reply, "wb") as handle:
            handle.write(line)
        if not run.check(reply, "serve finish"):
            return None
        run.attempted += 1
        what = "serve: shutdown"
        _ok(client.request(_frame({"op": "shutdown"})))
        client.close()
        client = None
        _, status, usage = os.wait4(daemon.pid, 0)
        daemon.returncode = os.waitstatus_to_exitcode(status)
        if daemon.returncode != 0:
            raise RuntimeError(f"daemon exited with {daemon.returncode}")
        sample["rss_mb"] = usage.ru_maxrss / 1024
        return sample
    except (OSError, ValueError, RuntimeError) as exc:
        run.fail(f"{what}: {exc}")
        return None
    finally:
        run.unpin()
        timer.cancel()
        if client is not None:
            client.close()
        if daemon.returncode is None:
            daemon.kill()
            daemon.wait()


def encode_frames(run: Run) -> List[bytes]:
    lines = trace_lines(run.input["path"])
    return [_frame({"op": "events", "session": "bench",
                    "lines": lines[i:i + FRAME_LINES]})
            for i in range(0, len(lines), FRAME_LINES)]


# -- end-to-end (--trace 0) -------------------------------------------------
def end_to_end(run: Run) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Samples until ``run.seconds`` pass; every timing is scaled to
    reference-host seconds and reported as the run's median."""
    deadline = time.perf_counter() + run.seconds
    walls: List[float] = []
    raw_walls: List[float] = []
    rss: List[float] = []
    setups: List[float] = []
    info: Dict[str, Any] = {}
    if run.workload == "serve-stream":
        frames = encode_frames(run)
        frame_s: List[float] = []
        finishes: List[float] = []
        while not walls or time.perf_counter() < deadline:
            sample = serve_stream(run, frames)
            if sample is None:
                if time.perf_counter() >= deadline:
                    break
                continue
            scale = sample["scale"]
            walls.append(sample["wall_s"] * scale)
            raw_walls.append(sample["wall_s"])
            rss.append(sample["rss_mb"])
            setups.append(sample["setup_s"] * scale)
            frame_s.extend(t * scale for t in sample["frame_s"])
            finishes.append(sample["finish_s"] * scale)
        info.update(
            frames=len(frame_s), frame_lines=FRAME_LINES,
            frame_p50_ms=_median(frame_s) * 1e3,
            frame_p95_ms=_percentile(frame_s, 95) * 1e3,
            finish_s=_median(finishes))
    else:
        while not walls or time.perf_counter() < deadline:
            sample = run.analyze()
            if sample is not None:
                walls.append(sample[0] * sample[2])
                raw_walls.append(sample[0])
                rss.append(sample[1])
            elif time.perf_counter() >= deadline:
                break
            started = run.start_up()
            if started is not None:
                setups.append(started)
        while len(setups) < MIN_SETUP_SAMPLES and run.failed == 0:
            started = run.start_up()
            if started is not None:
                setups.append(started)
    wall = _median(walls)
    metrics = {
        "wall_s": wall,
        "events_per_s": run.input["events"] / wall if wall else 0.0,
        "peak_rss_mb": _median(rss),
        "setup_s": _median(setups),
    }
    info.update(samples=len(walls), setup_samples=len(setups),
                raw_wall_min_s=min(raw_walls, default=0.0),
                raw_wall_median_s=_median(raw_walls),
                raw_wall_max_s=max(raw_walls, default=0.0))
    return metrics, info


# -- per layer (--trace 1) ----------------------------------------------------
def per_layer(run: Run) -> Tuple[Dict[str, float], Dict[str, Any]]:
    imports = [t for t in (run.import_times() for _ in range(IMPORT_SAMPLES))
               if t is not None]
    deadline = time.perf_counter() + run.seconds
    untraced: List[float] = []
    untraced_process: List[float] = []
    traced: List[Dict[str, Any]] = []
    while not traced or time.perf_counter() < deadline:
        # Alternate which side of a pair runs first.
        order = (False, True) if len(traced) % 2 == 0 else (True, False)
        for is_traced in order:
            result = run.pipeline(is_traced)
            if result is None:
                continue
            if is_traced:
                traced.append(result)
            else:
                untraced.append(result["wall_s"])
                untraced_process.append(result["process_wall_s"])
        if run.failed and time.perf_counter() >= deadline:
            break
    if not traced or not untraced:
        return {}, {}
    # Layer times come from the fastest, least disturbed, traced pass.
    best = min(traced, key=lambda r: r["wall_s"])
    selfs = best["self_s"]
    durations = best["durations"]
    counters = best["dc_counters"]
    metrics: Dict[str, float] = {
        "import.repro_s": _median([t[0] for t in imports]),
        "import.numpy_s": _median([t[1] for t in imports]),
    }
    for span, metric in SPAN_METRICS.items():
        metrics[metric] = selfs.get(span, 0.0)
    load = metrics["traces.load_s"]
    hits = counters.get("reach_hits", 0)
    misses = counters.get("reach_misses", 0)
    verdicts = best["verdicts"]
    races = durations.get("vindicate.race", [])
    decided = sum(1 for v in verdicts if v != "don't know")
    metrics.update({
        "traces.load_events_per_s": best["events"] / load if load else 0.0,
        "analysis.rss_rise_mb": best["rss_rise_mb"].get("analysis", 0.0),
        "analysis.dc_graph_edges": best["dc_graph_edges"],
        "analysis.dc_races": best["dc_races"],
        "analysis.dc_only_races": best["dc_only_races"],
        "graph.reach_hits": hits,
        "graph.reach_misses": misses,
        "graph.reach_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "vindicate.races": len(verdicts),
        "vindicate.per_race_ms_p50": _median(races) * 1e3,
        "vindicate.per_race_ms_max": max(races, default=0.0) * 1e3,
        "vindicate.construct_attempts": best["construct_attempts"],
        "vindicate.decided_ratio": decided / len(verdicts) if verdicts else 0.0,
        "vindicate.rss_rise_mb": best["rss_rise_mb"].get("vindicate", 0.0),
        "report.json_mb": best["json_bytes"] / 1e6,
        "serve.gc_retired": best.get("gc_retired", 0),
        "serve.ipc_ms_per_frame": 0.0,
        "traced.wall_s": best["wall_s"],
        "traced.unattributed_s": best["unattributed_s"],
        "traced.overhead_frac": best["wall_s"] / min(untraced) - 1,
    })
    # The passes are a re-implementation of the program's own loop (see
    # pipeline.py), so the raw walls of the real thing go next to theirs.
    info: Dict[str, Any] = {"traced_passes": len(traced),
                            "untraced_passes": len(untraced),
                            "untraced_wall_min_s": min(untraced),
                            "untraced_process_wall_min_s": min(untraced_process)}
    if run.workload == "serve-stream":
        sample = serve_stream(run, encode_frames(run))
        if sample is not None:
            metrics["serve.ipc_ms_per_frame"] = (
                _median(sample["frame_s"])
                - _median(durations.get("serve.feed", []))) * 1e3
            info["daemon_raw_wall_s"] = sample["wall_s"]
    else:
        cli = [sample[0] for sample in
               (run.analyze() for _ in range(CLI_SAMPLES)) if sample]
        info["cli_raw_wall_min_s"] = min(cli, default=0.0)
    attributed = sum(metrics[m] for m in SPAN_METRICS.values())
    info["attributed_plus_unattributed_s"] = (
        attributed + metrics["traced.unattributed_s"])
    return metrics, info


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Cold end-to-end benchmark of vindicator analyze/serve")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no program sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)

    run = Run(args.workload, args.seed, args.seconds)
    try:
        run.set_up()
        if args.trace:
            metrics, info = per_layer(run)
        else:
            metrics, info = end_to_end(run)
    finally:
        run.close()
    if not metrics:
        print("no successful sample", file=sys.stderr)
        return 1
    info.update(
        workload=run.workload, seed=run.seed, input=run.input,
        oracle=run.oracle, kernels_backend=sorted(run.backends),
        python=platform.python_version(),
        probe_median_s=_median(run.probes),
        # Every child's peak RSS is at least this: keep it well below.
        bench_maxrss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        failed_frac=run.failed / run.attempted if run.attempted else 0.0)
    info["input"].pop("path", None)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": _unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
