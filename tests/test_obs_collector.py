"""Collector-pause attribution (:mod:`repro.obs.collector`).

While observability is on, every cyclic-GC collection is counted per
generation and its pause summed into ``runtime.gc_pause_s`` (longest in
the ``runtime.gc_pause_max_s`` gauge); a generation-2 collection also
marks the innermost open span. Off, nothing sits in ``gc.callbacks``.
"""

import gc

from repro import obs
from repro.obs.collector import CollectorWatch
from repro.obs.schema import validate_snapshot


def watches():
    return [cb for cb in gc.callbacks if isinstance(cb, CollectorWatch)]


def test_disabled_installs_nothing():
    obs.disable()
    assert watches() == []


def test_collections_are_counted_and_marked():
    try:
        registry = obs.enable(sample_memory=False)
        assert len(watches()) == 1
        with obs.span("outer"):
            with obs.span("inner"):
                gc.collect(2)
            gc.collect(0)
        counters = registry.counters()
        gauges = registry.gauges()
        inner = obs.tracer().roots[0].children[0]
        snapshot = obs.ObsSession(registry, obs.tracer(), None).snapshot()
    finally:
        obs.disable()
    assert watches() == []
    assert counters["runtime.gc.collections.gen2"] >= 1
    assert counters["runtime.gc.collections.gen0"] >= 1
    assert counters["runtime.gc_pause_s"] > 0
    assert 0 < gauges["runtime.gc_pause_max_s"] <= counters["runtime.gc_pause_s"]
    assert inner.counts["gc_gen2_pauses"] >= 1
    assert inner.counts["gc_gen2_s"] > 0
    validate_snapshot(snapshot)


def test_reenabling_keeps_one_watch():
    try:
        obs.enable(sample_memory=False)
        obs.enable(sample_memory=False)
        assert len(watches()) == 1
    finally:
        obs.disable()
    assert watches() == []
