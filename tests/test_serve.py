"""End-to-end tests for the streaming analysis service (repro.serve).

The tentpole guarantee, exercised over the real daemon (sockets, shard
processes, checkpoints on disk): **any chunking, any worker count, any
kill point — the serve pipeline's final report is bit-identical to
single-shot ``vindicator analyze`` of the same events**, with GC
enabled, and every response valid under ``vindicator.serve/1`` (the
client schema-validates each frame before returning it).
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from repro.core.trace import Trace
from repro.runtime import execute
from repro.runtime.workloads import WORKLOADS
from repro.serve.checkpoint import resume_session, write_checkpoint
from repro.serve.client import ServeClient, ServeError
from repro.serve.protocol import MAX_FRAME_BYTES, ProtocolError, decode_frame
from repro.serve.server import ServeDaemon
from repro.serve.session import SessionAnalyzer, SessionConfig
from repro.serve.shard import checkpoint_path, shard_of
from repro.traces.io import dumps_trace, format_event
from repro.traces.packed import trace_hash
from repro.vindicate.vindicator import Vindicator

#: Differential matrix: enough workloads to cover fork/join, lock, and
#: volatile traffic, small enough to stream through a live daemon fast.
MATRIX_WORKLOADS = ["avrora", "sunflow", "pmd"]
SCALE = 0.2


def normalize(doc):
    """Strip wall-clock and environment fields; everything else must be
    bit-identical between serve and single-shot analyze."""
    doc = json.loads(json.dumps(doc))
    doc["timing"] = None
    doc["metrics"] = None
    doc["parallel"] = None
    doc["trace"]["provenance"] = None
    for vindication in doc.get("vindications", []):
        vindication["elapsed_seconds"] = None
    for analysis in doc.get("analyses", {}).values():
        analysis["counters"] = {
            key: value for key, value in analysis.get("counters", {}).items()
            if not key.startswith("reach_")
        }
    return doc


def workload(name, seed=3):
    return execute(WORKLOADS[name](scale=SCALE), seed=seed)


def event_lines(trace):
    return [format_event(e) for e in trace]


def reference_doc(trace):
    return normalize(Vindicator().run(trace).to_document())


def chunks(lines, size):
    return [lines[i:i + size] for i in range(0, len(lines), size)]


@pytest.fixture
def daemon_factory(tmp_path):
    """Start daemons on unix sockets under tmp_path; all are shut down
    at teardown no matter how the test exits."""
    daemons = []

    def start(jobs=1, **kwargs):
        index = len(daemons)
        daemon = ServeDaemon(
            unix_socket=str(tmp_path / f"serve{index}.sock"), jobs=jobs,
            checkpoint_dir=str(tmp_path / f"ckpt{index}"), **kwargs)
        daemon.start()
        daemons.append(daemon)
        return daemon

    yield start
    for daemon in daemons:
        daemon.shutdown()


def connect(daemon):
    return ServeClient(path=daemon.unix_socket)


class TestDaemonEndToEnd:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("name", MATRIX_WORKLOADS)
    def test_streamed_finish_matches_single_shot(self, daemon_factory,
                                                 name, jobs):
        """The acceptance matrix: >=3 workloads x 2 worker counts, GC
        on, chunked ingestion == one-shot batch analysis, bit for bit."""
        trace = workload(name)
        daemon = daemon_factory(jobs=jobs)
        with connect(daemon) as client:
            client.hello(name, config={"gc_window": 64})
            for chunk in chunks(event_lines(trace), 97):
                client.events(name, chunk)
            response = client.finish(name)
        assert response["trace_hash"] == trace_hash(trace)
        assert normalize(response["report"]) == reference_doc(trace)

    def test_chunking_is_irrelevant(self, daemon_factory):
        """Three clients, three chunkings of the same events, one
        daemon: identical reports and identical determinism hashes."""
        trace = workload("avrora")
        lines = event_lines(trace)
        daemon = daemon_factory(jobs=2)
        results = {}
        with connect(daemon) as client:
            for label, size in (("one-line", 1), ("mid", 113),
                                ("single-frame", len(lines))):
                client.hello(label, config={"gc_window": 32})
                for chunk in chunks(lines, size):
                    client.events(label, chunk)
                results[label] = client.finish(label)
        hashes = {r["trace_hash"] for r in results.values()}
        assert hashes == {trace_hash(trace)}
        reports = [normalize(r["report"]) for r in results.values()]
        assert reports[0] == reports[1] == reports[2]

    def test_concurrent_sessions_from_concurrent_clients(self,
                                                         daemon_factory):
        """Two threads, two connections, two sessions interleaving their
        frames arbitrarily; both reports match their references."""
        traces = {"left": workload("avrora", seed=3),
                  "right": workload("sunflow", seed=2)}
        daemon = daemon_factory(jobs=2)
        results = {}
        errors = []

        def stream(name):
            try:
                with connect(daemon) as client:
                    client.hello(name, config={"gc_window": 64})
                    for chunk in chunks(event_lines(traces[name]), 53):
                        client.events(name, chunk)
                    results[name] = client.finish(name)
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append((name, exc))

        threads = [threading.Thread(target=stream, args=(name,))
                   for name in traces]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for name, trace in traces.items():
            assert results[name]["trace_hash"] == trace_hash(trace)
            assert normalize(results[name]["report"]) == reference_doc(trace)

    def test_online_status_and_races(self, daemon_factory):
        trace = workload("avrora")
        lines = event_lines(trace)
        daemon = daemon_factory()
        with connect(daemon) as client:
            client.hello("s", config={"gc_window": 32})
            half = len(lines) // 2
            client.events("s", lines[:half])
            status = client.status("s")
            assert status["events"] == half
            assert status["finished"] is False
            assert status["gc_runs"] == half // 32
            mid_races = client.races("s")
            assert mid_races["events"] == half
            client.events("s", lines[half:])
            races = client.races("s")
            assert races["events"] == len(lines)
            # The online DC count equals what finish will report.
            final = client.finish("s")
            assert (races["analyses"]["dc"]["dynamic_races"]
                    == final["report"]["analyses"]["dc"]["dynamic_races"])
            assert client.status("s")["finished"] is True

    def test_sessions_listing_merges_shards(self, daemon_factory):
        daemon = daemon_factory(jobs=2)
        names = [f"sess-{i}" for i in range(5)]
        assert len({shard_of(n, 2) for n in names}) == 2  # really sharded
        with connect(daemon) as client:
            for name in names:
                client.hello(name)
                client.events(name, ["T1 begin", "T1 wr x"])
            listed = client.sessions()
        assert sorted(s["session"] for s in listed) == sorted(names)
        assert all(s["events"] == 2 for s in listed)

    def test_ping_and_shutdown_ops(self, daemon_factory):
        daemon = daemon_factory()
        with connect(daemon) as client:
            assert client.ping()["ok"] is True
            client.shutdown()
        assert daemon._stop.wait(timeout=5)


class TestCheckpointResume:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("kill_fraction", [0.1, 0.5, 0.9])
    def test_kill_point_resume_is_bit_identical(self, daemon_factory,
                                                tmp_path, jobs,
                                                kill_fraction):
        """Stream to an explicit checkpoint at an arbitrary point, bring
        the rest of the stream to a *different* daemon via resume: the
        final report and hash match the uninterrupted single shot."""
        trace = workload("avrora")
        lines = event_lines(trace)
        cut = int(len(lines) * kill_fraction)
        path = str(tmp_path / f"kill{jobs}-{cut}.vckp")

        first = daemon_factory(jobs=jobs)
        with connect(first) as client:
            client.hello("avrora", config={"gc_window": 32})
            for chunk in chunks(lines[:cut], 61):
                client.events("avrora", chunk)
            saved = client.checkpoint("avrora", path=path)
        assert saved["events"] == cut
        assert saved["bytes"] == os.path.getsize(path)

        second = daemon_factory(jobs=jobs)
        with connect(second) as client:
            resumed = client.hello("avrora", resume=path)
            assert resumed["resumed"] is True
            assert resumed["events"] == cut
            for chunk in chunks(lines[cut:], 61):
                client.events("avrora", chunk)
            response = client.finish("avrora")
        assert response["trace_hash"] == trace_hash(trace)
        assert normalize(response["report"]) == reference_doc(trace)

    def test_shutdown_drains_open_sessions(self, daemon_factory):
        """Graceful shutdown checkpoints every unfinished session, and
        the drain checkpoint resumes to the same final report."""
        trace = workload("sunflow", seed=2)
        lines = event_lines(trace)
        cut = len(lines) // 3
        daemon = daemon_factory(jobs=2)
        with connect(daemon) as client:
            client.hello("live", config={"gc_window": 32})
            client.events("live", lines[:cut])
            client.hello("done")
            client.events("done", ["T1 begin", "T1 wr x", "T1 end"])
            client.finish("done")  # finished sessions are not drained
        daemon.shutdown()
        assert [d["session"] for d in daemon.final_checkpoints] == ["live"]
        drained = daemon.final_checkpoints[0]
        assert drained["events"] == cut
        assert drained["path"] == checkpoint_path(daemon.checkpoint_dir,
                                                  "live")

        fresh = daemon_factory()
        with connect(fresh) as client:
            client.hello("live", resume=drained["path"])
            for chunk in chunks(lines[cut:], 200):
                client.events("live", chunk)
            response = client.finish("live")
        assert response["trace_hash"] == trace_hash(trace)
        assert normalize(response["report"]) == reference_doc(trace)

    def test_resume_indexes_each_event_once(self, tmp_path, monkeypatch):
        """Resume feeds the decoded events to the session's own trace:
        no other ``Trace`` indexes them, and the resumed session ends in
        the uninterrupted session's document."""
        trace = workload("avrora")
        cut = len(trace) // 2
        config = SessionConfig.from_dict("avrora", {"gc_window": 32})
        first = SessionAnalyzer(config)
        first.feed_events(trace.events[:cut])
        path = str(tmp_path / "half.vckp")
        write_checkpoint(first, path)

        sizes = []
        init = Trace.__init__

        def counting_init(self, events, *args, **kwargs):
            events = list(events)
            sizes.append(len(events))
            init(self, events, *args, **kwargs)

        monkeypatch.setattr(Trace, "__init__", counting_init)
        resumed = resume_session(path)
        monkeypatch.undo()
        assert sizes and not any(sizes)
        assert len(resumed.trace) == cut
        assert resumed.hasher.hexdigest() == first.hasher.hexdigest()
        resumed.feed_events(trace.events[cut:])
        assert normalize(resumed.finish()) == reference_doc(trace)

    def test_resume_rejects_wrong_session_name(self, daemon_factory,
                                               tmp_path):
        daemon = daemon_factory()
        path = str(tmp_path / "one.vckp")
        with connect(daemon) as client:
            client.hello("one")
            client.events("one", ["T1 begin", "T1 wr x"])
            client.checkpoint("one", path=path)
            with pytest.raises(ServeError) as excinfo:
                client.hello("two", resume=path)
        assert excinfo.value.code == "checkpoint"

    def test_resume_rejects_corrupt_checkpoint(self, daemon_factory,
                                               tmp_path):
        daemon = daemon_factory()
        path = tmp_path / "bad.vckp"
        path.write_bytes(b"VCKP1\n" + b"\xff" * 32)
        with connect(daemon) as client:
            with pytest.raises(ServeError) as excinfo:
                client.hello("bad", resume=str(path))
        assert excinfo.value.code == "checkpoint"


class TestProtocolErrors:
    """Satellite: malformed streams surface structured errors (with the
    failing event index / line number), never poison the daemon."""

    def test_unknown_session(self, daemon_factory):
        daemon = daemon_factory()
        with connect(daemon) as client:
            with pytest.raises(ServeError) as excinfo:
                client.status("ghost")
            assert excinfo.value.code == "unknown-session"
            assert client.ping()["ok"]  # connection still usable

    def test_session_exists(self, daemon_factory):
        daemon = daemon_factory()
        with connect(daemon) as client:
            client.hello("dup")
            with pytest.raises(ServeError) as excinfo:
                client.hello("dup")
            assert excinfo.value.code == "session-exists"

    def test_session_finished(self, daemon_factory):
        daemon = daemon_factory()
        with connect(daemon) as client:
            client.hello("f")
            client.events("f", ["T1 begin", "T1 wr x"])
            client.finish("f")
            with pytest.raises(ServeError) as excinfo:
                client.events("f", ["T1 rd x"])
            assert excinfo.value.code == "session-finished"

    def test_unparsable_line_reports_line_number(self, daemon_factory):
        daemon = daemon_factory()
        with connect(daemon) as client:
            client.hello("t")
            with pytest.raises(ServeError) as excinfo:
                client.events("t", ["T1 begin", "T1 frobnicate x"])
            error = excinfo.value.error
            assert error["code"] == "trace-format"
            assert error["line_number"] == 2
            # The frame was rejected atomically: nothing was accepted.
            assert client.status("t")["events"] == 0

    def test_structurally_invalid_stream_reports_event_index(
            self, daemon_factory):
        daemon = daemon_factory()
        with connect(daemon) as client:
            client.hello("t", config={"require_fork_closed": False})
            client.events("t", ["T1 begin", "T1 acq m"])
            with pytest.raises(ServeError) as excinfo:
                client.events("t", ["T2 begin", "T2 rel m"])
            error = excinfo.value.error
            assert error["code"] == "malformed-trace"
            assert error["event_index"] == 3

    def test_gc_session_rejects_unforked_thread(self, daemon_factory):
        daemon = daemon_factory()
        with connect(daemon) as client:
            client.hello("strict", config={"gc_window": 8})
            with pytest.raises(ServeError) as excinfo:
                client.events("strict", ["T1 begin", "T2 wr x"])
            assert excinfo.value.error["code"] == "malformed-trace"

    def test_bad_request_and_bad_config(self, daemon_factory):
        daemon = daemon_factory()
        with connect(daemon) as client:
            response = client.request({"op": "events", "session": "x"},
                                      check=False)
            assert response["ok"] is False
            assert response["error"]["code"] == "bad-request"
            with pytest.raises(ServeError) as excinfo:
                client.hello("x", config={"gc_window": -3})
            assert excinfo.value.code == "bad-request"

    def test_bad_policy_is_rejected_at_hello(self, daemon_factory):
        daemon = daemon_factory()
        with connect(daemon) as client:
            with pytest.raises(ServeError) as excinfo:
                client.hello("p", config={"policy": "bogus",
                                          "gc_window": 0})
            assert excinfo.value.code == "bad-request"
            assert "bogus" in excinfo.value.error["message"]
            # No session was opened: the name is still free and unknown.
            with pytest.raises(ServeError) as excinfo:
                client.status("p")
            assert excinfo.value.code == "unknown-session"
            client.hello("p", config={"policy": "earliest", "gc_window": 0})
            assert client.status("p")["events"] == 0

    def test_raw_garbage_frame(self, daemon_factory):
        daemon = daemon_factory()
        client = connect(daemon)
        try:
            client._sock.sendall(b"this is not json\n")
            response = decode_frame(client._reader.readline())
            assert response["ok"] is False
            assert response["error"]["code"] == "bad-frame"
        finally:
            client.close()

    def test_oversized_frame_is_rejected_client_side(self, daemon_factory):
        daemon = daemon_factory()
        with connect(daemon) as client:
            huge = ["T1 wr " + "x" * 1000] * (MAX_FRAME_BYTES // 1000)
            with pytest.raises(ProtocolError) as excinfo:
                client.events("nope", huge)
            assert excinfo.value.code == "too-large"


class TestWatcher:
    def wait_for(self, path, timeout=15.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if os.path.exists(path):
                return
            time.sleep(0.05)
        pytest.fail(f"timed out waiting for {path}")

    def test_dropped_trace_file_produces_result(self, daemon_factory,
                                                tmp_path):
        watch = tmp_path / "inbox"
        watch.mkdir()
        daemon = daemon_factory(watch_dir=str(watch),
                                watch_poll_seconds=0.05)
        trace = workload("sunflow", seed=2)
        # Write elsewhere, then mv in (the documented atomic handoff).
        staging = tmp_path / "job1.trace"
        staging.write_text(dumps_trace(trace), encoding="utf-8")
        os.rename(staging, watch / "job1.trace")

        self.wait_for(watch / "job1.result.json")
        self.wait_for(watch / "job1.trace.done")
        result = json.loads((watch / "job1.result.json").read_text())
        assert result["ok"] is True
        assert result["trace_hash"] == trace_hash(trace)
        assert normalize(result["report"]) == reference_doc(trace)

    def test_bad_trace_file_produces_error(self, daemon_factory, tmp_path):
        watch = tmp_path / "inbox"
        watch.mkdir()
        daemon_factory(watch_dir=str(watch), watch_poll_seconds=0.05)
        staging = tmp_path / "bad.trace"
        staging.write_text("T1 begin\nT1 what x\n", encoding="utf-8")
        os.rename(staging, watch / "bad.trace")

        self.wait_for(watch / "bad.error.json")
        self.wait_for(watch / "bad.trace.failed")
        error = json.loads((watch / "bad.error.json").read_text())
        assert error["ok"] is False
        assert error["error"]["code"] == "trace-format"
        assert error["error"]["line_number"] == 2


class TestMetrics:
    def scrape(self, daemon, path="/metrics"):
        host, port = daemon.metrics_address
        with urllib.request.urlopen(f"http://{host}:{port}{path}",
                                    timeout=10) as response:
            return response.read().decode("utf-8")

    def test_live_prometheus_counters(self, daemon_factory):
        daemon = daemon_factory(metrics_port=0)
        trace = workload("avrora")
        lines = event_lines(trace)
        with connect(daemon) as client:
            client.hello("m", config={"gc_window": 32})
            for chunk in chunks(lines, 100):
                client.events("m", chunk)
            client.finish("m")
        body = self.scrape(daemon)
        metrics = {}
        for line in body.splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.partition(" ")
                metrics[name] = float(value)
        assert metrics["vindicator_serve_events_total"] == len(lines)
        assert metrics["vindicator_serve_sessions_opened"] == 1
        assert metrics["vindicator_serve_sessions_finished"] == 1
        assert metrics["vindicator_serve_sessions_open"] == 0
        assert metrics["vindicator_serve_gc_runs_total"] == len(lines) // 32
        assert metrics["vindicator_serve_requests_total"] >= len(lines) / 100
        assert metrics["vindicator_serve_errors_total"] == 0
        health = json.loads(self.scrape(daemon, "/healthz"))
        assert health == {"status": "ok", "jobs": 1}


@pytest.mark.slow
class TestServeCli:
    def test_sigterm_drains_and_resume_matches(self, tmp_path):
        """The full operator story, through the real CLI: start the
        daemon, stream half a workload, SIGTERM, read the drain
        checkpoint from stderr, resume in-process, and match the
        single-shot report."""
        ckpt = tmp_path / "ckpt"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", "2", "--checkpoint-dir", str(ckpt)],
            stderr=subprocess.PIPE, text=True,
            env={**os.environ,
                 "PYTHONPATH": os.path.join(os.path.dirname(__file__),
                                            os.pardir, "src")},
            cwd=str(tmp_path))
        try:
            port = None
            assert proc.stderr is not None
            for line in proc.stderr:
                if line.startswith("listening on tcp "):
                    port = int(line.rsplit(":", 1)[1])
                if line.startswith("1 shard(s)") or "shard(s)" in line:
                    break
            assert port is not None

            trace = workload("avrora")
            lines = event_lines(trace)
            cut = len(lines) // 2
            with ServeClient(address=("127.0.0.1", port)) as client:
                client.hello("avrora", config={"gc_window": 32})
                client.events("avrora", lines[:cut])

            proc.send_signal(signal.SIGTERM)
            stderr = proc.stderr.read()
            assert proc.wait(timeout=30) == 0
            assert "checkpointed session 'avrora'" in stderr

            path = checkpoint_path(str(ckpt), "avrora")
            assert os.path.exists(path)
            analyzer = resume_session(path)
            assert len(analyzer.trace) == cut
            analyzer.feed_events(trace.events[cut:])
            assert normalize(analyzer.finish()) == reference_doc(trace)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
