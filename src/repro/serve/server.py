"""The ``vindicator serve`` daemon.

One process, three front doors, N shards:

* a unix-domain socket and/or a TCP socket speaking the framed NDJSON
  protocol (:mod:`repro.serve.protocol`), one thread per connection;
* a files-as-queues watcher (:mod:`repro.serve.watch`) that turns
  ``*.trace`` files dropped into a directory into sessions;
* an HTTP endpoint serving live Prometheus ``/metrics`` and
  ``/healthz``.

Sessions are routed to shards by a stable hash of their name
(:func:`repro.serve.shard.shard_of`), so every request for a session
reaches the same state no matter which listener it came in on. The
shards are created *before* any thread starts: forked workers must
inherit a quiescent, single-threaded parent.

Shutdown (SIGTERM/SIGINT or the ``shutdown`` op) is graceful: listeners
close, in-flight requests finish, and every open unfinished session is
checkpointed (:data:`repro.serve.shard.DRAIN_OP`) so clients can resume
against a fresh daemon with nothing lost.

The daemon keeps a *private*
:class:`~repro.obs.metrics.MetricsRegistry` rather than enabling the
process-global one: detector hot loops stay uninstrumented, and tests
embedding a daemon never leak metrics state across cases.
"""

from __future__ import annotations

import json
import os
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.obs.export import to_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.serve.protocol import (ProtocolError, MAX_FRAME_BYTES,
                                  decode_frame, error_response,
                                  frame_blocks, ok_response)
from repro.serve.shard import (DRAIN_OP, InlineShard, ProcessShard,
                               make_shards, shard_of)
from repro.serve.watch import Watcher


class ServeDaemon:
    """The streaming analysis service.

    Args:
        unix_socket: Path for the unix-domain listener (None = off).
        port: TCP port for the socket listener (None = off, 0 = pick an
            ephemeral port, exposed as :attr:`tcp_address` after start).
        host: Bind address for the TCP listener.
        jobs: Shard count; ``1`` keeps everything in-process.
        checkpoint_dir: Where drain/default checkpoints land (created
            on demand; defaults to the current directory).
        watch_dir: Directory to poll for ``*.trace`` drop files.
        metrics_port: HTTP port for ``/metrics`` + ``/healthz``
            (None = off, 0 = ephemeral, exposed as
            :attr:`metrics_address`).
    """

    def __init__(self, unix_socket: Optional[str] = None,
                 port: Optional[int] = None, host: str = "127.0.0.1",
                 jobs: int = 1, checkpoint_dir: Optional[str] = None,
                 watch_dir: Optional[str] = None,
                 metrics_port: Optional[int] = None,
                 watch_poll_seconds: float = 0.2):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if unix_socket is None and port is None and watch_dir is None:
            raise ValueError("serve needs at least one ingestion front "
                             "door: --socket, --port, or --watch")
        self.unix_socket = unix_socket
        self.port = port
        self.host = host
        self.jobs = jobs
        self.checkpoint_dir = checkpoint_dir or os.getcwd()
        self.watch_dir = watch_dir
        self.metrics_port = metrics_port
        self.watch_poll_seconds = watch_poll_seconds

        self.registry = MetricsRegistry()
        # Pre-register every serve counter at zero so a scrape exposes
        # the full set from the first request (absent-vs-zero matters
        # to alerting rules).
        for counter in ("requests_total", "errors_total",
                        "sessions_opened", "sessions_finished",
                        "events_total", "gc_runs_total", "gc_retired_total",
                        "checkpoints_written", "checkpoint_bytes_total"):
            self.registry.add(f"serve.{counter}", 0)
        self.registry.gauge("serve.sessions_open").set(0)
        self._metrics_lock = threading.Lock()
        #: Last-seen cumulative (events, gc_runs, gc_retired) per
        #: session, for folding shard responses into counters as deltas.
        self._session_marks: Dict[str, Tuple[int, int, int]] = {}
        #: Sessions that have finished (marks are kept for delta folding;
        #: this set keeps the open-sessions gauge honest).
        self._finished_sessions: Set[str] = set()

        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self._listeners: List[socket.socket] = []
        self._shards: List["InlineShard | ProcessShard"] = []
        self._http: Optional[ThreadingHTTPServer] = None
        self._watcher: Optional[Watcher] = None
        self.tcp_address: Optional[Tuple[str, int]] = None
        self.metrics_address: Optional[Tuple[str, int]] = None
        self._started = False
        self._drained = False
        self._drain_lock = threading.Lock()
        #: Checkpoints written by the final drain, for operators/tests.
        self.final_checkpoints: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bind listeners, fork shards, start every service thread."""
        assert not self._started, "daemon already started"
        self._started = True
        os.makedirs(self.checkpoint_dir, exist_ok=True)
        # Shards fork before any thread exists (fork safety).
        self._shards = make_shards(self.jobs, self.checkpoint_dir)

        if self.unix_socket is not None:
            if os.path.exists(self.unix_socket):
                os.unlink(self.unix_socket)  # stale socket from a crash
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.bind(self.unix_socket)
            sock.listen(64)
            self._listeners.append(sock)
            self._spawn(self._accept_loop, sock, name="serve-accept-unix")
        if self.port is not None:
            sock = socket.create_server((self.host, self.port))
            self.tcp_address = sock.getsockname()[:2]
            self._listeners.append(sock)
            self._spawn(self._accept_loop, sock, name="serve-accept-tcp")
        if self.metrics_port is not None:
            self._http = _MetricsServer((self.host, self.metrics_port),
                                        daemon=self)
            self.metrics_address = self._http.server_address[:2]
            self._spawn(self._http.serve_forever, name="serve-metrics")
        if self.watch_dir is not None:
            self._watcher = Watcher(self.watch_dir, self.route,
                                    stop=self._stop,
                                    poll_seconds=self.watch_poll_seconds)
            self._spawn(self._watcher.run, name="serve-watch")

    def _spawn(self, target: Any, *args: Any, name: str) -> None:
        thread = threading.Thread(target=target, args=args, name=name,
                                  daemon=True)
        thread.start()
        self._threads.append(thread)

    def serve_forever(self) -> None:
        """Block until :meth:`shutdown` (signal, op, or another thread)."""
        self._stop.wait()

    def shutdown(self) -> None:
        """Graceful drain: stop listeners, checkpoint every open
        unfinished session, stop shards. Idempotent and thread-safe."""
        self._stop.set()
        with self._drain_lock:
            if self._drained:
                return
            self._drained = True
        for sock in self._listeners:
            try:
                sock.close()  # unblocks accept()
            except OSError:  # pragma: no cover
                pass
        if self._http is not None:
            self._http.shutdown()
        for shard in self._shards:
            response = shard.request({"op": DRAIN_OP,
                                      "dir": self.checkpoint_dir})
            for doc in response.get("checkpoints", []):
                self.final_checkpoints.append(doc)
                with self._metrics_lock:
                    self.registry.add("serve.checkpoints_written", 1)
                    self.registry.add("serve.checkpoint_bytes_total",
                                      doc.get("bytes", 0))
        for shard in self._shards:
            shard.close()
        if self.unix_socket is not None and os.path.exists(self.unix_socket):
            os.unlink(self.unix_socket)

    # ------------------------------------------------------------------
    # Request routing (shared by socket connections and the watcher)
    # ------------------------------------------------------------------
    def route(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Dispatch one decoded request to its owner and fold the
        response into the live metrics."""
        op = request.get("op")
        op_name = op if isinstance(op, str) else "?"
        try:
            if op == "ping":
                response = ok_response("ping")
            elif op == "shutdown":
                # Trip the stop event; the drain itself happens on the
                # thread that owns serve_forever/run, after this
                # response has already been written back.
                self._stop.set()
                response = ok_response("shutdown")
            elif op == "sessions":
                merged: List[Dict[str, Any]] = []
                for shard in self._shards:
                    doc = shard.request({"op": "sessions"})
                    if doc.get("ok"):
                        merged.extend(doc.get("sessions", []))
                response = ok_response("sessions", sessions=merged)
            else:
                session = request.get("session")
                if not isinstance(session, str) or not session:
                    raise ProtocolError(
                        "bad-request",
                        f"op {op_name!r} requires a 'session' string")
                shard = self._shards[shard_of(session, self.jobs)]
                response = shard.request(request)
        except Exception as exc:  # noqa: BLE001 — becomes a wire error
            response = error_response(op_name, exc)
        self._observe(request, response)
        return response

    def _observe(self, request: Dict[str, Any],
                 response: Dict[str, Any]) -> None:
        with self._metrics_lock:
            reg = self.registry
            reg.add("serve.requests_total", 1)
            if not response.get("ok"):
                reg.add("serve.errors_total", 1)
                return
            op = response.get("op")
            session = request.get("session")
            if op == "hello":
                reg.add("serve.sessions_opened", 1)
                if isinstance(session, str):
                    self._session_marks[session] = (
                        int(response.get("events", 0)), 0, 0)
                reg.gauge("serve.sessions_open").set(
                    len(self._session_marks) - len(self._finished_sessions))
            elif op in ("events", "status"):
                doc = response if op == "events" else response.get("status", {})
                if isinstance(session, str) and isinstance(doc, dict):
                    events = int(doc.get("events", 0))
                    gc_runs = int(doc.get("gc_runs", 0))
                    gc_retired = int(doc.get("gc_retired", 0))
                    last = self._session_marks.get(session, (0, 0, 0))
                    reg.add("serve.events_total", max(0, events - last[0]))
                    reg.add("serve.gc_runs_total", max(0, gc_runs - last[1]))
                    reg.add("serve.gc_retired_total",
                            max(0, gc_retired - last[2]))
                    self._session_marks[session] = (events, gc_runs,
                                                    gc_retired)
            elif op == "finish":
                # finish is idempotent at the session layer; count (and
                # close the gauge for) each session only once.
                if isinstance(session, str) \
                        and session not in self._finished_sessions:
                    self._finished_sessions.add(session)
                    reg.add("serve.sessions_finished", 1)
                    reg.gauge("serve.sessions_open").set(
                        len(self._session_marks)
                        - len(self._finished_sessions))
            elif op == "checkpoint":
                reg.add("serve.checkpoints_written", 1)
                reg.add("serve.checkpoint_bytes_total",
                        int(response.get("bytes", 0)))

    # ------------------------------------------------------------------
    # Socket front door
    # ------------------------------------------------------------------
    def _accept_loop(self, listener: socket.socket) -> None:
        while not self._stop.is_set():
            try:
                conn, _addr = listener.accept()
            except OSError:  # listener closed by shutdown
                return
            self._spawn(self._serve_connection, conn, name="serve-conn")

    def _serve_connection(self, conn: socket.socket) -> None:
        with conn:
            reader = conn.makefile("rb")
            while not self._stop.is_set():
                try:
                    line = reader.readline(MAX_FRAME_BYTES + 2)
                except OSError:
                    return
                if not line:
                    return
                if line.strip() == b"":
                    continue
                try:
                    request = decode_frame(line)
                except ProtocolError as exc:
                    response = error_response("?", exc)
                    self._observe({}, response)
                else:
                    response = self.route(request)
                try:
                    blocks = frame_blocks(response)
                except ProtocolError as exc:
                    # The reply is over the frame cap: answer with the
                    # error instead, and keep the connection.
                    response = error_response(response["op"], exc)
                    with self._metrics_lock:
                        self.registry.add("serve.errors_total", 1)
                    blocks = frame_blocks(response)
                try:
                    for block in blocks:
                        conn.sendall(block)
                except OSError:
                    return


class _MetricsServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address: Tuple[str, int], daemon: ServeDaemon):
        self.serve_daemon = daemon
        super().__init__(address, _MetricsHandler)


class _MetricsHandler(BaseHTTPRequestHandler):
    server: _MetricsServer

    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        daemon = self.server.serve_daemon
        if self.path.split("?")[0] == "/metrics":
            with daemon._metrics_lock:
                body = to_prometheus(daemon.registry)
            self._reply(200, body, "text/plain; version=0.0.4")
        elif self.path.split("?")[0] == "/healthz":
            self._reply(200, json.dumps({"status": "ok",
                                         "jobs": daemon.jobs}) + "\n",
                        "application/json")
        else:
            self._reply(404, "not found\n", "text/plain")

    def _reply(self, code: int, body: str, content_type: str) -> None:
        data = body.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # scrapes should not spam the daemon's stderr
