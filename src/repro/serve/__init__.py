"""Streaming analysis service (``vindicator serve``).

Turns the batch Vindicator pipeline into a long-running daemon:

* :mod:`repro.serve.server` — the daemon: unix/TCP listeners, a
  files-as-queues watcher, a live Prometheus ``/metrics`` endpoint,
  and graceful SIGTERM/SIGINT drain with a final checkpoint;
* :mod:`repro.serve.session` — one client session: a
  :class:`~repro.serve.streaming.StreamingTrace` fed incrementally
  through the epoch HB/WCP/DC detectors ``vindicator analyze`` runs,
  with windowed metadata GC (:mod:`repro.serve.gc`) bounding live
  state;
* :mod:`repro.serve.shard` — sessions sharded across worker processes
  (the PR-4 fork pool), one shard owning each session end to end;
* :mod:`repro.serve.checkpoint` — checkpoint/resume on the packed
  columnar encoding plus a determinism hash, so a resumed shard
  provably matches an uninterrupted run;
* :mod:`repro.serve.protocol` — the framed NDJSON protocol
  (``vindicator.serve/1``), schema-pinned by :mod:`repro.obs.schema`;
* :mod:`repro.serve.client` — a small client used by the CLI smoke
  jobs, the benchmarks, and the tests.

The load-bearing guarantee, pinned by the differential tests: for any
chunking of the event stream, any worker count, GC on or off, and any
checkpoint/resume kill-point, a finished session's report is
bit-identical to single-shot ``vindicator analyze`` of the same events
(timing/metrics/provenance metadata excepted).
"""

from repro.serve.session import DEFAULT_GC_WINDOW, SessionAnalyzer, SessionConfig
from repro.serve.server import ServeDaemon
from repro.serve.client import ServeClient

__all__ = [
    "DEFAULT_GC_WINDOW",
    "SessionAnalyzer",
    "SessionConfig",
    "ServeDaemon",
    "ServeClient",
]
