"""``repro.obs`` — the observability subsystem.

One module-level switch controls a process-wide metrics registry and
tracer. Instrumented code throughout the pipeline asks this module for
its instruments::

    from repro import obs

    reg = obs.metrics()                  # AnyRegistry
    with obs.span("pipeline.analysis"):  # AnySpan (context manager)
        ...
    reg.add("analysis.dc.races", n)

When observability is *off* (the default), :func:`metrics` returns the
shared :data:`~repro.obs.metrics.NULL_REGISTRY` and :func:`span` the
shared :data:`~repro.obs.spans.NULL_SPAN` — every instrument operation
is an empty method on a singleton, and the hottest loops skip even that
by batching plain ints (see ``docs/OBSERVABILITY.md``). The detection
pipeline itself never flips the switch; only entry points
(CLI ``--metrics``/``profile``, benchmarks, tests) do, via
:func:`enable`/:func:`disable` or the :func:`session` context manager,
which also wires exporters by file extension.
"""

from __future__ import annotations

import io
from contextlib import contextmanager
from typing import Dict, Iterator, Mapping, Optional

from repro.obs.collector import CollectorWatch
from repro.obs.export import (
    JsonlWriter,
    meta_record,
    metrics_record,
    snapshot_document,
    to_prometheus,
    write_metrics,
)
from repro.obs.metrics import (
    DEFAULT_SIZE_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    NULL_REGISTRY,
    AnyCounter,
    AnyGauge,
    AnyHistogram,
    AnyRegistry,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
)
from repro.obs.spans import (
    NULL_SPAN,
    NULL_TRACER,
    AnySpan,
    AnyTracer,
    CloseHook,
    NullTracer,
    Span,
    Tracer,
)

__all__ = [
    "AnyCounter", "AnyGauge", "AnyHistogram", "AnyRegistry", "AnySpan",
    "AnyTracer", "Counter", "DEFAULT_SIZE_BUCKETS", "DEFAULT_TIME_BUCKETS",
    "Gauge", "Histogram", "MetricsRegistry", "NullMetricsRegistry",
    "NullTracer", "ObsSession", "Span", "Tracer", "disable", "enable",
    "enabled", "metrics", "session", "span", "tracer",
]

_metrics: AnyRegistry = NULL_REGISTRY
_tracer: AnyTracer = NULL_TRACER
_collector: Optional[CollectorWatch] = None


def metrics() -> AnyRegistry:
    """The current registry (the null registry when disabled)."""
    return _metrics


def tracer() -> AnyTracer:
    """The current tracer (the null tracer when disabled)."""
    return _tracer


def span(name: str) -> AnySpan:
    """A span on the current tracer (:data:`NULL_SPAN` when disabled)."""
    return _tracer.span(name)


def enabled() -> bool:
    """True when a live registry is installed."""
    return _metrics.enabled


def enable(sample_memory: bool = True, deep_memory: bool = False,
           on_close: Optional[CloseHook] = None) -> MetricsRegistry:
    """Install a fresh live registry + tracer, and a collector watch
    feeding them (:mod:`repro.obs.collector`); returns the registry."""
    global _metrics, _tracer, _collector
    disable()
    registry = MetricsRegistry()
    live = Tracer(sample_memory=sample_memory, deep_memory=deep_memory,
                  on_close=on_close)
    _metrics, _tracer = registry, live
    _collector = CollectorWatch(registry, live)
    _collector.install()
    return registry


def disable() -> None:
    """Restore the null registry + tracer (the default state) and
    remove the collector watch."""
    global _metrics, _tracer, _collector
    if _collector is not None:
        _collector.uninstall()
        _collector = None
    _metrics = NULL_REGISTRY
    _tracer = NULL_TRACER


class ObsSession:
    """Handle yielded by :func:`session`; snapshot access after the run."""

    def __init__(self, registry: MetricsRegistry, active_tracer: Tracer,
                 metrics_path: Optional[str]) -> None:
        self.registry = registry
        self.tracer = active_tracer
        self.metrics_path = metrics_path

    def snapshot(self, meta: Optional[Mapping[str, object]] = None
                 ) -> Dict[str, object]:
        return snapshot_document(self.registry, self.tracer, meta)

    def prometheus(self) -> str:
        return to_prometheus(self.registry)

    def render_spans(self, min_ms: float = 0.0) -> str:
        return self.tracer.render(min_ms)


@contextmanager
def session(metrics_path: Optional[str] = None,
            meta: Optional[Mapping[str, object]] = None,
            deep_memory: bool = False) -> Iterator[ObsSession]:
    """Enable observability for one run and export on exit.

    ``metrics_path`` picks the exporter by extension: ``*.jsonl``
    streams span records as they close and appends the final metrics
    record; ``*.json`` writes the snapshot document; ``*.prom``/``*.txt``
    writes Prometheus text. ``None`` collects in memory only (the
    caller reads ``session.registry`` / ``session.tracer``).
    Observability is always restored to disabled on exit.
    """
    stream: Optional[io.TextIOWrapper] = None
    writer: Optional[JsonlWriter] = None
    streaming = bool(metrics_path) and str(metrics_path).lower().endswith(
        ".jsonl")
    try:
        if streaming:
            assert metrics_path is not None
            stream = open(metrics_path, "w", encoding="utf-8")
            writer = JsonlWriter(stream)
            registry = enable(deep_memory=deep_memory,
                              on_close=writer.on_close)
            writer.write(meta_record(
                command=str((meta or {}).get("command", "")),
                provenance=_meta_provenance(meta)))
        else:
            registry = enable(deep_memory=deep_memory)
        active = _tracer
        assert isinstance(active, Tracer)
        handle = ObsSession(registry, active, metrics_path)
        yield handle
        if streaming and writer is not None:
            writer.write(metrics_record(registry))
        elif metrics_path:
            write_metrics(metrics_path, registry, active, meta)
    finally:
        if stream is not None:
            stream.close()
        disable()


def _meta_provenance(meta: Optional[Mapping[str, object]]
                     ) -> Optional[Mapping[str, object]]:
    if meta is None:
        return None
    value = meta.get("provenance")
    return value if isinstance(value, dict) else None
