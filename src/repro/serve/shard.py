"""Session shards: the daemon's unit of parallelism.

Each session is owned end to end by exactly one shard, chosen by a
stable hash of the session name (``sha256(name) % jobs``), so a
session's events are always analyzed by the same state — sharding
changes throughput, never results. A shard is either in-process
(:class:`InlineShard`, ``--jobs 1``) or a forked worker
(:class:`ProcessShard`) talking over a :func:`multiprocessing.Pipe`;
both run the same :class:`ShardState` dispatch, so the two modes are
behaviourally identical.

:meth:`ShardState.handle` never raises: every failure becomes the
protocol's structured error response, because a malformed client stream
must poison only its own session, not the worker owning other sessions.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import re
import signal
import threading
from multiprocessing.connection import Connection
from multiprocessing.context import BaseContext
from typing import Any, Dict, List

from repro.obs.schema import validate_serve_request, SchemaError
from repro.serve.checkpoint import (CheckpointError, resume_session,
                                    write_checkpoint)
from repro.serve.protocol import ProtocolError, error_response, ok_response
from repro.serve.session import SessionAnalyzer, SessionConfig

#: Internal (server → shard) ops, never accepted from clients.
DRAIN_OP = "__drain__"
EXIT_SENTINEL = "__exit__"


def shard_of(session: str, jobs: int) -> int:
    """Stable session→shard routing (pure function of the name)."""
    digest = hashlib.sha256(session.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % jobs


def pool_context() -> BaseContext:
    """The multiprocessing context for shard workers: ``fork`` (cheap,
    inherits the imported modules), else ``spawn``."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


def checkpoint_path(checkpoint_dir: str, session: str) -> str:
    """Default checkpoint file for a session: a filesystem-safe slug
    plus a short name hash (distinct names never collide)."""
    slug = re.sub(r"[^A-Za-z0-9_.-]", "_", session)[:80]
    suffix = hashlib.sha256(session.encode("utf-8")).hexdigest()[:12]
    return os.path.join(checkpoint_dir, f"{slug}.{suffix}.vckp")


class ShardState:
    """All sessions owned by one shard, plus the request dispatch."""

    def __init__(self, checkpoint_dir: str):
        self.checkpoint_dir = checkpoint_dir
        self.sessions: Dict[str, SessionAnalyzer] = {}

    # ------------------------------------------------------------------
    def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Dispatch one request; always returns a protocol response."""
        op = request.get("op")
        op_name = op if isinstance(op, str) else "?"
        try:
            if op == DRAIN_OP:
                return self._drain(request)
            try:
                validate_serve_request(request)
            except SchemaError as exc:
                raise ProtocolError("bad-request", str(exc))
            return self._dispatch(op_name, request)
        except Exception as exc:  # noqa: BLE001 — becomes a wire error
            return error_response(op_name, exc)

    def _dispatch(self, op: str, request: Dict[str, Any]) -> Dict[str, Any]:
        if op == "hello":
            return self._hello(request)
        if op == "events":
            analyzer = self._get(request["session"])
            accepted = analyzer.feed_lines(request["lines"])
            return ok_response(
                op, accepted=accepted, events=len(analyzer.trace),
                gc_runs=analyzer.gc_runs, gc_retired=analyzer.gc_retired)
        if op == "status":
            return ok_response(op, status=self._get(request["session"]).status())
        if op == "races":
            return ok_response(op, races=self._get(request["session"]).races_document())
        if op == "finish":
            analyzer = self._get(request["session"])
            report = analyzer.finish()
            return ok_response(op, report=report,
                               trace_hash=analyzer.hasher.hexdigest())
        if op == "checkpoint":
            return self._checkpoint(request)
        if op == "sessions":
            return ok_response(op, sessions=[
                analyzer.status() for analyzer in self.sessions.values()])
        raise ProtocolError("bad-request",
                            f"op {op!r} is not handled by shards")

    # ------------------------------------------------------------------
    def _get(self, name: str) -> SessionAnalyzer:
        analyzer = self.sessions.get(name)
        if analyzer is None:
            raise ProtocolError("unknown-session",
                                f"no open session named {name!r}")
        return analyzer

    def _hello(self, request: Dict[str, Any]) -> Dict[str, Any]:
        name = request["session"]
        if name in self.sessions:
            raise ProtocolError("session-exists",
                                f"session {name!r} is already open")
        resume_from = request.get("resume")
        if resume_from is not None:
            analyzer = resume_session(resume_from)
            if analyzer.config.name != name:
                raise CheckpointError(
                    f"checkpoint {resume_from!r} belongs to session "
                    f"{analyzer.config.name!r}, not {name!r}")
            self.sessions[name] = analyzer
            return ok_response("hello", session=name, resumed=True,
                               events=len(analyzer.trace))
        config = SessionConfig.from_dict(name, request.get("config") or {})
        self.sessions[name] = SessionAnalyzer(config)
        return ok_response("hello", session=name, resumed=False, events=0)

    def _checkpoint(self, request: Dict[str, Any]) -> Dict[str, Any]:
        analyzer = self._get(request["session"])
        path = request.get("path") or checkpoint_path(
            self.checkpoint_dir, analyzer.config.name)
        written = write_checkpoint(analyzer, path)
        return ok_response("checkpoint", path=path, bytes=written,
                           events=len(analyzer.trace),
                           trace_hash=analyzer.hasher.hexdigest())

    def _drain(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Final checkpoints for every open, unfinished session (the
        graceful-shutdown path; internal op)."""
        directory = request.get("dir") or self.checkpoint_dir
        checkpoints: List[Dict[str, Any]] = []
        errors: List[Dict[str, Any]] = []
        for name, analyzer in self.sessions.items():
            if analyzer.finished or len(analyzer.trace) == 0:
                continue
            path = checkpoint_path(directory, name)
            try:
                written = write_checkpoint(analyzer, path)
            except Exception as exc:  # noqa: BLE001
                errors.append({"session": name, "message": str(exc)})
                continue
            checkpoints.append({"session": name, "path": path,
                                "bytes": written,
                                "events": len(analyzer.trace),
                                "trace_hash": analyzer.hasher.hexdigest()})
        return ok_response(DRAIN_OP, checkpoints=checkpoints, errors=errors)


class InlineShard:
    """The ``--jobs 1`` shard: same dispatch, no process boundary."""

    def __init__(self, index: int, checkpoint_dir: str):
        self.index = index
        self._state = ShardState(checkpoint_dir)
        self._lock = threading.Lock()

    def request(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            return self._state.handle(doc)

    def close(self) -> None:
        pass


def _shard_main(conn: "Connection", index: int) -> None:
    """Forked worker loop: one request in, one response out, until the
    exit sentinel. Signals are the parent's job — the worker must keep
    serving drain requests while the parent handles SIGTERM."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    state = ShardState(checkpoint_dir=os.environ.get("TMPDIR", "/tmp"))
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            break
        if request == EXIT_SENTINEL:
            break
        if isinstance(request, dict) and "checkpoint_dir" in request:
            state.checkpoint_dir = request["checkpoint_dir"]
            request = {k: v for k, v in request.items()
                       if k != "checkpoint_dir"}
        try:
            conn.send(state.handle(request))
        except (BrokenPipeError, OSError):  # pragma: no cover
            break
    conn.close()


class ProcessShard:
    """A shard in a forked worker process (``--jobs N``), reached over a
    pipe. Requests on one shard are serialized by a lock; different
    shards run genuinely in parallel."""

    def __init__(self, index: int, checkpoint_dir: str):
        self.index = index
        self.checkpoint_dir = checkpoint_dir
        ctx = pool_context()
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self._conn: "Connection" = parent_conn
        self._lock = threading.Lock()
        self._proc = ctx.Process(target=_shard_main,
                                 args=(child_conn, index),
                                 name=f"vindicator-shard-{index}",
                                 daemon=True)
        self._proc.start()
        child_conn.close()

    def request(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        # checkpoint_dir rides along so the worker (which may have been
        # forked before the server resolved its state dir) always
        # checkpoints where the parent expects.
        doc = dict(doc)
        doc["checkpoint_dir"] = self.checkpoint_dir
        with self._lock:
            try:
                self._conn.send(doc)
                response: Dict[str, Any] = self._conn.recv()
            except (EOFError, OSError) as exc:
                return error_response(
                    str(doc.get("op", "?")),
                    ProtocolError("internal",
                                  f"shard {self.index} died: {exc}"))
        return response

    def close(self) -> None:
        with self._lock:
            try:
                self._conn.send(EXIT_SENTINEL)
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
            self._conn.close()
        self._proc.join(timeout=10)
        if self._proc.is_alive():  # pragma: no cover - stuck worker
            self._proc.terminate()
            self._proc.join(timeout=5)


def make_shards(jobs: int, checkpoint_dir: str) -> "List[InlineShard | ProcessShard]":
    """The daemon's shard set. ``jobs == 1`` stays fully in-process;
    otherwise every shard forks (created before any listener thread
    starts, so the fork inherits a quiescent parent)."""
    if jobs == 1:
        return [InlineShard(0, checkpoint_dir)]
    return [ProcessShard(i, checkpoint_dir) for i in range(jobs)]
