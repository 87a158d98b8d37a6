"""Unit tests for span tracing and the module-level obs switch."""

import time

from repro import obs
from repro.obs.memory import MemorySample, peak_rss_kb, sample
from repro.obs.spans import (
    NULL_SPAN,
    NULL_TRACER,
    NullSpan,
    Tracer,
)


class TestTracer:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer(sample_memory=False)
        with tracer.span("root"):
            with tracer.span("child_a"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("child_b"):
                pass
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert [c.name for c in root.children] == ["child_a", "child_b"]
        assert [c.name for c in root.children[0].children] == ["grandchild"]
        assert tracer.depth == 0

    def test_child_times_sum_to_about_the_root(self):
        tracer = Tracer(sample_memory=False)
        with tracer.span("root"):
            with tracer.span("a"):
                time.sleep(0.01)
            with tracer.span("b"):
                time.sleep(0.01)
        root = tracer.roots[0]
        assert root.elapsed_seconds >= root.child_seconds
        # The uninstrumented gap inside the root is tiny.
        assert root.self_seconds < 0.5 * root.elapsed_seconds
        assert tracer.total_seconds() == root.elapsed_seconds

    def test_annotations(self):
        tracer = Tracer(sample_memory=False)
        with tracer.span("s") as sp:
            sp.annotate("events", 7)
            sp.count("hits")
            sp.count("hits", 2)
        assert sp.counts == {"events": 7, "hits": 3}

    def test_memory_sampling(self):
        tracer = Tracer(sample_memory=True)
        with tracer.span("s") as sp:
            pass
        assert isinstance(sp.mem_before, MemorySample)
        assert isinstance(sp.mem_after, MemorySample)
        assert sp.memory_delta().keys() >= {"peak_rss_kb"}

    def test_deep_memory_counts_gc_objects(self):
        deep = sample(deep=True)
        assert deep.gc_objects is not None and deep.gc_objects > 0
        shallow = sample(deep=False)
        assert shallow.gc_objects is None
        assert peak_rss_kb() > 0

    def test_to_dict_round_trip(self):
        tracer = Tracer(sample_memory=False)
        with tracer.span("root") as sp:
            sp.annotate("n", 1)
            with tracer.span("child"):
                pass
        doc = tracer.to_dicts()
        assert doc[0]["name"] == "root"
        assert doc[0]["counts"] == {"n": 1}
        assert doc[0]["children"][0]["name"] == "child"

    def test_on_close_streams_post_order_with_depth(self):
        closed = []
        tracer = Tracer(sample_memory=False,
                        on_close=lambda sp, d: closed.append((sp.name, d)))
        with tracer.span("root"):
            with tracer.span("a"):
                with tracer.span("aa"):
                    pass
            with tracer.span("b"):
                pass
        assert closed == [("aa", 2), ("a", 1), ("b", 1), ("root", 0)]

    def test_render_is_aligned_and_filters_by_min_ms(self):
        tracer = Tracer(sample_memory=False)
        with tracer.span("root"):
            with tracer.span("slow"):
                time.sleep(0.02)
            with tracer.span("fast"):
                pass
        text = tracer.render(min_ms=5.0)
        assert "root" in text and "slow" in text
        assert "fast" not in text
        assert "ms" in text and "%" in text


class TestNullPath:
    def test_null_tracer_hands_out_the_singleton(self):
        assert NULL_TRACER.span("x") is NULL_SPAN
        assert NULL_TRACER.render() == ""
        assert NULL_TRACER.total_seconds() == 0.0
        with NULL_TRACER.span("x") as sp:
            sp.annotate("a", 1)
            sp.count("b")
        assert isinstance(sp, NullSpan)

    def test_module_switch(self):
        assert not obs.enabled()
        assert obs.metrics().enabled is False
        assert obs.span("x") is NULL_SPAN
        try:
            reg = obs.enable()
            assert obs.enabled()
            assert obs.metrics() is reg
            with obs.span("x"):
                pass
            assert obs.tracer().roots[0].name == "x"
        finally:
            obs.disable()
        assert not obs.enabled()
        assert obs.span("x") is NULL_SPAN

    def test_session_restores_disabled_on_error(self):
        try:
            with obs.session():
                assert obs.enabled()
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert not obs.enabled()
