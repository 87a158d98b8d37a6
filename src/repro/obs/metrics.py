"""Metrics instruments and the registry that owns them.

Three instrument kinds cover everything the evaluation tables need:

* :class:`Counter` — a monotonically increasing count (events processed,
  races found, edges added);
* :class:`Gauge` — a point-in-time value (graph size, peak RSS);
* :class:`Histogram` — fixed-bucket distribution (per-race vindication
  time, race event distances).

The central design constraint is that *disabled observability must cost
nothing on hot paths*: there is a parallel family of null instruments
(:class:`NullCounter`, :class:`NullGauge`, :class:`NullHistogram`) whose
mutating methods are empty, plus :class:`NullMetricsRegistry`, which
hands out the shared null singletons. Instrumented code fetches its
instruments once per phase (``begin_trace``, start of a vindication,
...) from :func:`repro.obs.metrics` and then calls ``inc``/``observe``
with **no branching**: when observability is off the call dispatches to
an empty method, and the hottest per-event loops avoid even that by
accumulating plain ``int`` attributes that are published in one batch at
phase end (see ``docs/OBSERVABILITY.md`` for the layering argument).

Instruments are keyed by dotted lowercase names (``analysis.dc.events``)
so the Prometheus exporter can mangle them mechanically. Buckets are
fixed at histogram creation — observation is O(log buckets) with no
allocation.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple, Union

Value = Union[int, float]

#: Dotted lowercase identifier: segments of [a-z0-9_]+ joined by dots.
_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)*$")

#: Default histogram buckets (seconds): microseconds to minutes.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0)

#: Default buckets for counts/sizes (events, distances, edges).
DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 5000, 10000, 100000)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(
            f"invalid metric name {name!r}: expected dotted lowercase "
            "segments like 'analysis.dc.events'")
    return name


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Value = 0

    def inc(self, amount: Value = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A point-in-time value; :meth:`set` overwrites, :meth:`track_max`
    keeps the maximum seen."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Value = 0

    def set(self, value: Value) -> None:
        self.value = value

    def track_max(self, value: Value) -> None:
        if value > self.value:
            self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """A fixed-bucket histogram (cumulative-style export, Prometheus
    ``le`` semantics: ``counts[i]`` observations fell in
    ``(bucket[i-1], bucket[i]]``, with one overflow bucket at the end).
    """

    __slots__ = ("name", "buckets", "counts", "sum", "count")

    def __init__(self, name: str, buckets: Sequence[float]) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(a >= b for a, b in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram {name!r} buckets must be non-empty and "
                f"strictly increasing, got {bounds}")
        self.name = name
        self.buckets: Tuple[float, ...] = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: Value) -> None:
        """Record one observation."""
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def to_dict(self) -> Dict[str, object]:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name}: n={self.count}, sum={self.sum:g})"


class NullCounter:
    """No-op counter handed out by the disabled registry."""

    __slots__ = ()
    name = "null"
    value: Value = 0

    def inc(self, amount: Value = 1) -> None:
        pass


class NullGauge:
    """No-op gauge handed out by the disabled registry."""

    __slots__ = ()
    name = "null"
    value: Value = 0

    def set(self, value: Value) -> None:
        pass

    def track_max(self, value: Value) -> None:
        pass


class NullHistogram:
    """No-op histogram handed out by the disabled registry."""

    __slots__ = ()
    name = "null"
    sum: float = 0.0
    count: int = 0

    def observe(self, value: Value) -> None:
        pass

    def to_dict(self) -> Dict[str, object]:
        return {"buckets": [], "counts": [], "sum": 0.0, "count": 0}


#: Shared null singletons — every disabled call site hits the same
#: objects, so the disabled path allocates nothing.
NULL_COUNTER = NullCounter()
NULL_GAUGE = NullGauge()
NULL_HISTOGRAM = NullHistogram()

AnyCounter = Union[Counter, NullCounter]
AnyGauge = Union[Gauge, NullGauge]
AnyHistogram = Union[Histogram, NullHistogram]


class MetricsRegistry:
    """Owns every live instrument, keyed by name.

    ``counter``/``gauge``/``histogram`` create on first use and return
    the same instrument afterwards, so call sites can re-fetch by name
    at phase boundaries without coordinating instance sharing.
    """

    #: Discriminates the live registry from :class:`NullMetricsRegistry`
    #: without an isinstance check.
    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Instrument acquisition
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(_check_name(name))
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(_check_name(name))
        return instrument

    def histogram(self, name: str,
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(
                _check_name(name), buckets or DEFAULT_TIME_BUCKETS)
        return instrument

    # ------------------------------------------------------------------
    # Bulk helpers
    # ------------------------------------------------------------------
    def add(self, name: str, amount: Value) -> None:
        """Convenience: ``counter(name).inc(amount)``."""
        self.counter(name).inc(amount)

    def counters(self) -> Dict[str, Value]:
        """Counter values by name (sorted for stable output)."""
        return {name: c.value for name, c in sorted(self._counters.items())}

    def gauges(self) -> Dict[str, Value]:
        return {name: g.value for name, g in sorted(self._gauges.items())}

    def histograms(self) -> Dict[str, Dict[str, object]]:
        return {name: h.to_dict()
                for name, h in sorted(self._histograms.items())}

    def snapshot(self) -> Dict[str, object]:
        """One JSON-able document with every instrument's current state."""
        return {
            "counters": self.counters(),
            "gauges": self.gauges(),
            "histograms": self.histograms(),
        }


class NullMetricsRegistry:
    """The disabled registry: hands out shared null instruments.

    Keeping the interface identical to :class:`MetricsRegistry` lets
    instrumented code fetch-and-use instruments with zero branches; the
    cost of disabled instrumentation is one empty method call, and zero
    where call sites batch into plain ints.
    """

    enabled = False

    def counter(self, name: str) -> NullCounter:
        return NULL_COUNTER

    def gauge(self, name: str) -> NullGauge:
        return NULL_GAUGE

    def histogram(self, name: str,
                  buckets: Optional[Sequence[float]] = None) -> NullHistogram:
        return NULL_HISTOGRAM

    def add(self, name: str, amount: Value) -> None:
        pass

    def counters(self) -> Dict[str, Value]:
        return {}

    def gauges(self) -> Dict[str, Value]:
        return {}

    def histograms(self) -> Dict[str, Dict[str, object]]:
        return {}

    def snapshot(self) -> Dict[str, object]:
        return {"counters": {}, "gauges": {}, "histograms": {}}


NULL_REGISTRY = NullMetricsRegistry()

AnyRegistry = Union[MetricsRegistry, NullMetricsRegistry]
