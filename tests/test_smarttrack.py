"""Integration tests for the epoch detectors, the default
``variant="fast"`` path.

The epoch detectors plug into every consumer of the reference ones —
the Vindicator, the CLI, and the observability registry — and each
seam must preserve the bit-identical-document guarantee (modulo the
wall-clock fields ``documents.blank_timings`` blanks) while exposing
the epoch/ownership counters.
"""

import re

import pytest

from repro import obs
from repro.analysis.smarttrack import EpochDCDetector, EpochWCPDetector
from repro.cli import main
from repro.runtime import execute
from repro.runtime.workloads import WORKLOADS
from repro.serve.shard import pool_context
from repro.traces.gen import GeneratorConfig, random_trace
from repro.traces.io import dump_trace
from repro.traces.litmus import figure1, figure3
from repro.vindicate.vindicator import Vindicator

from documents import blank_timings as normalize


@pytest.fixture(scope="module")
def workload_trace():
    return execute(WORKLOADS["avrora"](scale=0.5), seed=2)


class TestDetectorSurface:
    def test_relation_and_metric_label(self):
        # Races keep the reference relation strings ("WCP"/"DC" — the
        # report surface is part of the bit-identity contract); only the
        # metric namespace distinguishes the variants.
        assert EpochWCPDetector().relation == "WCP"
        assert EpochDCDetector().relation == "DC"
        assert EpochWCPDetector().metric_label() == "wcp_epoch"
        assert EpochDCDetector().metric_label() == "dc_epoch"

    def test_fast_stats_keys_are_stable(self):
        det = EpochDCDetector()
        det.analyze(figure1())
        assert sorted(det.fast_stats()) == [
            "epoch_exclusive_hits",
            "epoch_promotions",
            "epoch_read_gate_hits",
            "epoch_read_inflations",
            "epoch_write_gate_hits",
            "ownership_lock_transfers",
            "ownership_rule_b_skips",
            "snapshots_copied",
            "snapshots_reused",
        ]

    def test_epoch_counters_published_to_obs(self, workload_trace):
        obs.enable(sample_memory=False)
        try:
            EpochWCPDetector().analyze(workload_trace)
            EpochDCDetector().analyze(workload_trace)
            counters = obs.metrics().counters()
        finally:
            obs.disable()
        assert counters["analysis.wcp_epoch.events"] == len(workload_trace)
        assert counters["analysis.dc_epoch.events"] == len(workload_trace)
        assert "analysis.wcp_epoch.epoch_exclusive_hits" in counters
        assert "analysis.dc_epoch.ownership_rule_b_skips" in counters
        assert "analysis.dc_epoch.snapshots_reused" in counters


class TestVindicatorVariant:
    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            Vindicator(variant="turbo")

    @pytest.mark.parametrize("trace_factory", [figure1, figure3],
                             ids=["figure1", "figure3"])
    def test_documents_identical_on_litmus(self, trace_factory):
        trace = trace_factory()
        ref = normalize(Vindicator(vindicate_all=True, variant="reference")
                        .run(trace).to_document())
        fast = normalize(Vindicator(vindicate_all=True, variant="fast")
                         .run(trace).to_document())
        assert ref == fast

    def test_documents_identical_on_workload(self, workload_trace):
        ref = normalize(Vindicator(sanitize=True, variant="reference")
                        .run(workload_trace).to_document())
        fast = normalize(Vindicator(sanitize=True, variant="fast")
                         .run(workload_trace).to_document())
        assert ref == fast

    def test_documents_identical_on_random_traces(self):
        config = GeneratorConfig(threads=3, events=25, variables=2,
                                 locks=2, use_fork_join=True)
        for seed in range(5):
            trace = random_trace(seed, config)
            ref = normalize(Vindicator(vindicate_all=True,
                                       variant="reference")
                            .run(trace).to_document())
            fast = normalize(Vindicator(vindicate_all=True, variant="fast")
                             .run(trace).to_document())
            assert ref == fast, seed

    def test_parallel_fast_matches_serial_reference(self, workload_trace):
        # The default path in a forked worker, the way a serve shard
        # runs it, against the reference in this process: the epoch
        # detectors keep no state that a process boundary could change.
        ref = normalize(Vindicator(variant="reference").run(workload_trace)
                        .to_document())
        with pool_context().Pool(1) as pool:
            fast = pool.apply(_default_document, (workload_trace,))
        assert ref == normalize(fast)


def _default_document(trace):
    return Vindicator().run(trace).to_document()


class TestCLI:
    def test_litmus_fast_vc(self, capsys):
        assert main(["litmus", "figure1", "--variant", "fast"]) == 0
        out = capsys.readouterr().out
        assert "DC: 1 static races" in out

    def test_analyze_fast_vc_matches_reference(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        dump_trace(figure1(), path)
        assert main(["analyze", str(path), "--vindicate-all",
                     "--variant", "reference"]) == 0
        ref_out = capsys.readouterr().out
        assert main(["analyze", str(path), "--vindicate-all"]) == 0
        fast_out = capsys.readouterr().out
        no_timing = lambda s: re.sub(r"\d+\.\d+ ms", "_ ms", s)
        assert no_timing(ref_out) == no_timing(fast_out)

    def test_workload_fast_vc(self, capsys):
        assert main(["workload", "avrora", "--scale", "0.3",
                     "--variant", "fast"]) == 0
        out = capsys.readouterr().out
        assert "DC" in out
