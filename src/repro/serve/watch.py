"""Files-as-queues ingestion: a polled drop directory.

Producers that cannot hold a socket open (cron jobs, CI steps, shell
pipelines) write a complete text-format trace to ``<name>.trace`` in the
watch directory. The watcher turns each file into a session named after
it, streams the lines through the normal request router in bounded
chunks (so a huge file behaves exactly like a long-lived socket
client), finishes it, and leaves:

* ``<name>.result.json`` — the ``finish`` report (the same
  ``vindicator.analyze/1`` document a socket client would get), and
* ``<name>.trace.done`` — the input, renamed so it is processed once;
  on failure ``<name>.error.json`` + ``<name>.trace.failed`` instead.

Files are claimed by renaming ``.trace`` → ``.trace.working`` first —
an atomic operation, so even two daemons watching one directory never
double-process a file. Partially written files are the producer's
problem: write elsewhere and ``mv`` in (atomic on one filesystem).
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable, Dict, List

from repro.obs.export import write_document

#: Lines per ``events`` request when replaying a drop file.
CHUNK_LINES = 2000

Router = Callable[[Dict[str, Any]], Dict[str, Any]]


class Watcher:
    """Polls ``directory`` for ``*.trace`` files and feeds them through
    ``route`` (the daemon's request dispatcher)."""

    def __init__(self, directory: str, route: Router,
                 stop: threading.Event, poll_seconds: float = 0.2):
        self.directory = directory
        self.route = route
        self.stop = stop
        self.poll_seconds = poll_seconds
        #: Files fully processed (for tests/operators).
        self.processed: List[str] = []

    def run(self) -> None:
        os.makedirs(self.directory, exist_ok=True)
        while not self.stop.is_set():
            self.scan_once()
            self.stop.wait(self.poll_seconds)

    def scan_once(self) -> int:
        """One directory sweep; returns files processed."""
        count = 0
        try:
            names = sorted(os.listdir(self.directory))
        except OSError:  # pragma: no cover - directory vanished
            return 0
        for name in names:
            if not name.endswith(".trace"):
                continue
            if self._process(name):
                count += 1
            if self.stop.is_set():
                break
        return count

    def _process(self, name: str) -> bool:
        path = os.path.join(self.directory, name)
        working = path + ".working"
        try:
            os.rename(path, working)  # atomic claim
        except OSError:
            return False  # another worker claimed it first
        session = f"watch/{name[:-len('.trace')]}"
        stem = path[:-len(".trace")]
        try:
            result = self._run_session(session, working)
        except Exception as exc:  # noqa: BLE001 — recorded, not fatal
            self._write_json(f"{stem}.error.json",
                             {"session": session,
                              "error": {"code": "internal",
                                        "message": str(exc)}})
            os.rename(working, path + ".failed")
            return True
        if result.get("ok"):
            self._write_json(f"{stem}.result.json", result)
            os.rename(working, path + ".done")
        else:
            self._write_json(f"{stem}.error.json", result)
            os.rename(working, path + ".failed")
        self.processed.append(name)
        return True

    def _run_session(self, session: str, path: str) -> Dict[str, Any]:
        response = self.route({"op": "hello", "session": session})
        if not response.get("ok"):
            return response
        chunk: List[str] = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                chunk.append(line)
                if len(chunk) >= CHUNK_LINES:
                    response = self.route({"op": "events",
                                           "session": session,
                                           "lines": chunk})
                    if not response.get("ok"):
                        return response
                    chunk = []
        if chunk:
            response = self.route({"op": "events", "session": session,
                                   "lines": chunk})
            if not response.get("ok"):
                return response
        return self.route({"op": "finish", "session": session})

    @staticmethod
    def _write_json(path: str, doc: Dict[str, Any]) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            write_document(doc, fh)
        os.replace(tmp, path)
