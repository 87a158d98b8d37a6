"""Unit tests for the metrics instruments and registry (repro.obs.metrics)."""

import pytest

from repro.obs.metrics import (
    DEFAULT_SIZE_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
)


class TestInstruments:
    def test_counter_counts(self):
        c = Counter("analysis.dc.events")
        c.inc()
        c.inc(41)
        assert c.value == 42

    def test_gauge_set_and_track_max(self):
        g = Gauge("graph.nodes")
        g.set(10)
        g.track_max(5)
        assert g.value == 10
        g.track_max(25)
        assert g.value == 25
        g.set(3)
        assert g.value == 3

    def test_histogram_buckets_are_le_semantics(self):
        h = Histogram("vindicate.seconds", buckets=(1.0, 10.0))
        for v in (0.5, 1.0, 2.0, 100.0):
            h.observe(v)
        # counts[i] holds (bucket[i-1], bucket[i]]; last is overflow.
        assert h.counts == [2, 1, 1]
        assert h.count == 4
        assert h.sum == pytest.approx(103.5)
        doc = h.to_dict()
        assert doc["buckets"] == [1.0, 10.0]
        assert doc["counts"] == [2, 1, 1]

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 1.0))

    def test_default_buckets_are_strictly_increasing(self):
        for buckets in (DEFAULT_TIME_BUCKETS, DEFAULT_SIZE_BUCKETS):
            assert all(a < b for a, b in zip(buckets, buckets[1:]))


class TestRegistry:
    def test_memoizes_by_name(self):
        reg = MetricsRegistry()
        assert reg.counter("a.b") is reg.counter("a.b")
        assert reg.gauge("a.b") is reg.gauge("a.b")
        assert reg.histogram("a.b") is reg.histogram("a.b")
        # Different kinds may share a name (separate namespaces).
        reg.counter("x").inc()
        reg.gauge("x").set(7)
        assert reg.counters()["x"] == 1
        assert reg.gauges()["x"] == 7

    def test_add_is_counter_shorthand(self):
        reg = MetricsRegistry()
        reg.add("runtime.events", 100)
        reg.add("runtime.events", 1)
        assert reg.counters() == {"runtime.events": 101}

    @pytest.mark.parametrize("bad", ["", "Upper.case", "a..b", ".a", "a.",
                                     "with-dash", "with space", "a.B.c"])
    def test_rejects_invalid_names(self, bad):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter(bad)

    def test_snapshot_shape_and_sorting(self):
        reg = MetricsRegistry()
        reg.add("b.second", 2)
        reg.add("a.first", 1)
        reg.gauge("g").set(5)
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a.first", "b.second"]
        assert snap["gauges"] == {"g": 5}
        assert snap["histograms"]["h"]["count"] == 1
        assert reg.enabled is True


class TestNullRegistry:
    def test_hands_out_shared_singletons(self):
        reg = NullMetricsRegistry()
        assert reg.counter("anything") is NULL_COUNTER
        assert reg.gauge("anything") is NULL_GAUGE
        assert reg.histogram("anything") is NULL_HISTOGRAM
        assert reg.enabled is False
        assert NULL_REGISTRY.enabled is False

    def test_all_operations_are_no_ops(self):
        reg = NULL_REGISTRY
        reg.add("a", 5)
        reg.counter("a").inc(10)
        reg.gauge("a").set(10)
        reg.gauge("a").track_max(10)
        reg.histogram("a").observe(10)
        assert reg.counters() == {}
        assert reg.gauges() == {}
        assert reg.histograms() == {}
        assert reg.snapshot() == {"counters": {}, "gauges": {},
                                  "histograms": {}}
        assert NULL_COUNTER.value == 0
        assert NULL_GAUGE.value == 0
        assert NULL_HISTOGRAM.count == 0

    def test_null_registry_accepts_any_name(self):
        # No validation on the disabled path — it must cost nothing.
        NULL_REGISTRY.counter("NOT a valid name").inc()
