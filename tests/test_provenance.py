"""Provenance stamping: every trace records how to regenerate it, and
the stamp survives into reports and the analyze --json document."""

from repro import obs
from repro.obs.schema import validate_analyze_document
from repro.runtime import execute, fast_path_filter
from repro.runtime.workloads import WORKLOADS
from repro.traces.gen import GeneratorConfig, random_trace
from repro.traces.io import dump_trace, load_trace, loads_trace
from repro.traces.litmus import figure2
from repro.vindicate.vindicator import Vindicator


class TestTraceStamps:
    def test_generator_stamps_seed_and_config(self):
        cfg = GeneratorConfig(threads=2, events=10)
        trace = random_trace(42, cfg)
        assert trace.provenance["kind"] == "generator"
        assert trace.provenance["seed"] == 42
        assert trace.provenance["config"]["threads"] == 2
        # The stamp is sufficient to regenerate the identical trace.
        again = random_trace(trace.provenance["seed"],
                             GeneratorConfig(**trace.provenance["config"]))
        assert [(e.tid, e.kind, e.target) for e in again] == \
               [(e.tid, e.kind, e.target) for e in trace]

    def test_scheduler_stamps_program_and_seed(self):
        trace = execute(WORKLOADS["avrora"](scale=0.2), seed=7,
                        policy="round_robin", quantum=4)
        prov = trace.provenance
        assert prov["kind"] == "scheduler"
        assert prov["program"] == "avrora"
        assert prov["seed"] == 7
        assert prov["policy"] == "round_robin"
        assert prov["quantum"] == 4

    def test_file_load_stamps_path(self, tmp_path):
        path = tmp_path / "t.txt"
        dump_trace(figure2(), path)
        trace = load_trace(path)
        assert trace.provenance == {"kind": "file", "path": str(path)}

    def test_string_load_has_no_stamp(self, tmp_path):
        path = tmp_path / "t.txt"
        dump_trace(figure2(), path)
        trace = loads_trace(path.read_text())
        assert trace.provenance == {}

    def test_fast_path_filter_propagates_and_marks(self):
        trace = execute(WORKLOADS["xalan"](scale=0.3), seed=1)
        filtered, _ = fast_path_filter(trace)
        assert filtered.provenance["kind"] == "scheduler"
        assert filtered.provenance["seed"] == 1
        assert filtered.provenance["fast_path_filtered"] is True
        assert "fast_path_filtered" not in trace.provenance


class TestReportStamps:
    def test_report_carries_trace_provenance(self):
        trace = execute(WORKLOADS["avrora"](scale=0.2), seed=5)
        report = Vindicator().run(trace)
        assert report.provenance["kind"] == "scheduler"
        assert report.provenance["seed"] == 5

    def test_obs_snapshot_stamped_when_enabled(self):
        trace = figure2()
        report_off = Vindicator().run(trace)
        assert report_off.obs is None
        try:
            obs.enable()
            report_on = Vindicator().run(trace)
        finally:
            obs.disable()
        assert report_on.obs is not None
        assert report_on.obs["counters"]["analysis.dc_epoch.events"] == len(trace)

    def test_to_document_validates_and_carries_provenance(self):
        trace = execute(WORKLOADS["avrora"](scale=0.2), seed=9)
        try:
            obs.enable()
            report = Vindicator(vindicate_all=True).run(trace)
        finally:
            obs.disable()
        doc = report.to_document()
        validate_analyze_document(doc)
        assert doc["schema"] == "vindicator.analyze/1"
        assert doc["trace"]["provenance"]["seed"] == 9
        assert doc["metrics"] is not None
        assert set(doc["analyses"]) == {"hb", "wcp", "dc"}
