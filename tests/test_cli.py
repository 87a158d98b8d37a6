"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.obs.schema import (
    validate_lint_document,
    validate_scan_document,
)
from repro.runtime import execute
from repro.runtime.workloads import WORKLOADS
from repro.traces.io import dump_trace
from repro.traces.litmus import ALL as LITMUS, figure1, figure2
from repro.vindicate.vindicator import Vindicator

from documents import blank_timings

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


class TestLitmusCommand:
    def test_single_litmus(self, capsys):
        assert main(["litmus", "figure2"]) == 0
        out = capsys.readouterr().out
        assert "figure2" in out
        assert "DC: 1 static races" in out
        assert "predictable race" in out

    def test_all_litmus(self, capsys):
        assert main(["litmus"]) == 0
        out = capsys.readouterr().out
        assert "figure1" in out and "figure4b" in out

    def test_unknown_litmus(self, capsys):
        assert main(["litmus", "nope"]) == 2
        assert "unknown litmus" in capsys.readouterr().err

    def test_witness_flag(self, capsys):
        assert main(["litmus", "figure2", "--witness"]) == 0
        out = capsys.readouterr().out
        assert "witness (correctly reordered trace)" in out


class TestAnalyzeCommand:
    def test_analyze_file(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        dump_trace(figure1(), path)
        assert main(["analyze", str(path), "--vindicate-all"]) == 0
        out = capsys.readouterr().out
        assert "WCP: 1 static races" in out
        assert "vindication:" in out

    def test_analyze_reports_distances(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        dump_trace(figure2(), path)
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "DC-only static races" in out

    def test_policy_flag(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        dump_trace(figure2(), path)
        assert main(["analyze", str(path), "--policy", "earliest"]) == 0


class TestWorkloadCommand:
    def test_workload_runs(self, capsys):
        assert main(["workload", "luindex", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "static races" in out

    def test_workload_fast_path(self, capsys):
        assert main(["workload", "luindex", "--scale", "0.2",
                     "--fast-path"]) == 0
        assert "fast path removed" in capsys.readouterr().out

    def test_unknown_workload(self, capsys):
        assert main(["workload", "nope"]) == 2
        assert "unknown workload" in capsys.readouterr().err


class TestLintCommand:
    def test_clean_trace(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        dump_trace(figure1(), path)
        assert main(["lint", str(path)]) == 0
        out = capsys.readouterr().out
        assert "0 error(s), 0 warning(s), 0 note(s)" in out

    def test_errors_reported_with_line_and_code(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("# comment\nT1 wr x\nT2 rel m\n")
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert f"{path}:line 3: SA101 error:" in out
        assert "1 error(s)" in out

    def test_warnings_do_not_fail(self, tmp_path, capsys):
        path = tmp_path / "warn.txt"
        path.write_text("T1 acq m\nT1 wr x\n")
        assert main(["lint", str(path)]) == 0
        out = capsys.readouterr().out
        assert "SA120 warning" in out

    def test_accepts_traces_analyze_rejects(self, tmp_path, capsys):
        # `analyze` would raise TraceFormatError on this trace; `lint`
        # must still process it and report every finding.
        path = tmp_path / "mess.txt"
        path.write_text("T1 rel m\nT1 rel m\nT2 join T9\n")
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert out.count("SA101") == 2
        assert "SA110" in out

    def test_missing_file_is_usage_failure(self, tmp_path, capsys):
        # Exit-code contract: 2 is reserved for usage/IO failures, so a
        # missing trace is distinguishable from a trace with findings.
        assert main(["lint", str(tmp_path / "absent.txt")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_json_document_is_schema_valid(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        dump_trace(figure1(), path)
        assert main(["lint", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        validate_lint_document(doc)
        assert doc["schema"] == "vindicator.lint/1"
        assert doc["summary"]["findings"] == 0

    def test_json_reports_findings_and_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("# comment\nT1 wr x\nT2 rel m\n")
        assert main(["lint", str(path), "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        validate_lint_document(doc)
        assert doc["summary"]["errors"] == 1
        [finding] = doc["findings"]
        assert finding["code"] == "SA101"
        assert finding["severity"] == "error"
        assert finding["line"] == 3


class TestScanCommand:
    def test_broken_cache_reports_the_race(self, capsys):
        assert main(["scan", str(EXAMPLES / "broken_cache.py")]) == 1
        out = capsys.readouterr().out
        assert "SA201" in out
        assert "cache.entry" in out

    def test_json_document_is_schema_valid(self, capsys):
        assert main(["scan", str(EXAMPLES / "broken_cache.py"),
                     "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        validate_scan_document(doc)
        assert doc["schema"] == "vindicator.scan/1"
        [module] = doc["modules"]
        assert "cache.entry" in [f["path"] for f in module["findings"]]
        # The instrumentation plan prunes thread-local sites.
        pruned = [s for s in module["plan"] if not s["instrument"]]
        assert pruned
        assert all(s["tier"] == "thread-local" for s in pruned)

    def test_clean_source_exits_0(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text(
            "import threading\n"
            "LOCK = threading.Lock()\n"
            "total = 0\n"
            "def work():\n"
            "    global total\n"
            "    with LOCK:\n"
            "        total += 1\n"
            "def main():\n"
            "    t = threading.Thread(target=work)\n"
            "    t.start()\n"
            "    work()\n"
            "    t.join()\n")
        assert main(["scan", str(path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_missing_path_is_usage_failure(self, tmp_path, capsys):
        assert main(["scan", str(tmp_path / "absent.py")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_syntax_error_is_usage_failure(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text("def broken(:\n")
        assert main(["scan", str(path)]) == 2
        assert "bad.py" in capsys.readouterr().err

    def test_directory_scan_aggregates(self, capsys):
        assert main(["scan", str(EXAMPLES), "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        validate_scan_document(doc)
        assert doc["summary"]["modules"] >= 4
        assert doc["summary"]["errors"] >= 3


class TestStaticFlags:
    def test_sanitize_passes_on_litmus(self, capsys):
        assert main(["litmus", "figure2", "--sanitize"]) == 0
        assert "lockset pre-analysis:" in capsys.readouterr().out

    def test_sanitize_on_workload(self, capsys):
        assert main(["workload", "luindex", "--scale", "0.2",
                     "--sanitize"]) == 0
        assert "lockset pre-analysis:" in capsys.readouterr().out

    def test_analyze_accepts_both_flags(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        dump_trace(figure2(), path)
        assert main(["analyze", str(path), "--sanitize",
                     "--vindicate-all"]) == 0
        out = capsys.readouterr().out
        assert "lockset pre-analysis:" in out
        assert "vindication:" in out

    def test_prefilter_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            main(["litmus", "figure2", "--prefilter"])
        assert "unrecognized arguments" in capsys.readouterr().err


def _variant_documents(trace, **kwargs):
    """The default-path and reference-variant ``analyze/1`` documents
    for ``trace``, with only the wall-clock fields blanked."""
    fast = Vindicator(**kwargs).run(trace).to_document()
    reference = Vindicator(variant="reference", **kwargs).run(
        trace).to_document()
    return blank_timings(fast), blank_timings(reference)


#: --vindicate-all off and on, and --sanitize (adds the lockset block).
PIPELINE_FLAGS = [{}, {"vindicate_all": True},
                  {"vindicate_all": True, "sanitize": True}]
PIPELINE_IDS = ["dc-only", "vindicate-all", "sanitize"]


class TestDefaultPathMatchesReference:
    """The epoch detectors (the default) and the reference detectors
    produce the same ``analyze/1`` document: verdicts, ``attempts``,
    cycles, witnesses' sizes and every counter, ``reach_*`` included."""

    @pytest.mark.parametrize("flags", PIPELINE_FLAGS, ids=PIPELINE_IDS)
    @pytest.mark.parametrize("name", list(LITMUS))
    def test_litmus(self, name, flags):
        fast, reference = _variant_documents(
            LITMUS[name](), transitive_force=not name.startswith("figure4"),
            **flags)
        assert fast == reference

    @pytest.mark.parametrize("flags", PIPELINE_FLAGS, ids=PIPELINE_IDS)
    @pytest.mark.parametrize("name", ["xalan", "avrora", "h2"])
    def test_workload_scale_2(self, name, flags):
        trace = execute(WORKLOADS[name](scale=2), seed=0)
        fast, reference = _variant_documents(trace, **flags)
        assert fast["analyses"]["dc"]["races"]
        assert fast == reference

    def test_default_variant_is_fast(self):
        assert Vindicator().variant == "fast"
        assert build_parser().parse_args(
            ["analyze", "t.txt"]).variant == "fast"

    def test_unknown_variant_is_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["litmus", "figure2", "--variant", "batch"])
        assert "invalid choice" in capsys.readouterr().err

    def test_cli_variant_flag_matches(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        dump_trace(figure1(), path)
        documents = []
        for variant in ("fast", "reference"):
            assert main(["analyze", str(path), "--vindicate-all", "--json",
                         "--variant", variant]) == 0
            documents.append(blank_timings(json.loads(
                capsys.readouterr().out)))
        assert documents[0] == documents[1]
        assert documents[0]["parallel"] == {"jobs": 1}

    def test_profile_tags_the_variant(self, tmp_path, capsys):
        metrics = tmp_path / "profile.jsonl"
        assert main(["profile", "luindex", "--scale", "0.2", "--variant",
                     "reference", "--metrics", str(metrics)]) == 0
        records = [json.loads(line)
                   for line in metrics.read_text().splitlines()]
        [root] = [r for r in records
                  if r.get("name") == "profile.luindex"]
        assert root["tags"]["variant"] == "reference"


#: The detector-variant flags: each variant named, and no flag at all,
#: i.e. the default path.
VARIANT_FLAGS = [["--variant", "reference"], ["--variant", "fast"], []]
VARIANT_IDS = ["reference", "fast", "default"]


def _verdict_lines(out: str) -> list:
    return [line for line in out.splitlines()
            if "race" in line and "ms)" not in line]


class TestVariantFlagMatrix:
    @pytest.mark.parametrize("variant", VARIANT_FLAGS, ids=VARIANT_IDS)
    @pytest.mark.parametrize("static", [[], ["--sanitize"]],
                             ids=["plain", "sanitize"])
    def test_workload_matrix_serial(self, variant, static, capsys):
        assert main(["workload", "luindex", "--scale", "0.2",
                     "--vindicate-all", *variant, *static]) == 0
        out = capsys.readouterr().out
        assert "DC:" in out
        if static:
            assert "lockset pre-analysis:" in out

    @pytest.mark.parametrize("variant", VARIANT_FLAGS, ids=VARIANT_IDS)
    def test_workload_matrix_parallel(self, variant, capsys):
        # Formerly each variant against its own --jobs 2 run; the pool is
        # gone, so each variant is held to the reference's verdict lines.
        assert main(["workload", "luindex", "--scale", "0.2",
                     "--vindicate-all", "--variant", "reference"]) == 0
        reference = capsys.readouterr().out
        assert main(["workload", "luindex", "--scale", "0.2",
                     "--vindicate-all", *variant]) == 0
        out = capsys.readouterr().out
        keep = _verdict_lines(reference)
        assert keep
        assert _verdict_lines(out) == keep

    @pytest.mark.parametrize("variant", VARIANT_FLAGS[1:],
                             ids=VARIANT_IDS[1:])
    def test_litmus_and_analyze_accept_variants(self, variant, tmp_path,
                                                capsys):
        assert main(["litmus", "figure2", *variant]) == 0
        assert "DC: 1 static races" in capsys.readouterr().out
        path = tmp_path / "t.txt"
        dump_trace(figure2(), path)
        assert main(["analyze", str(path), "--vindicate-all",
                     *variant]) == 0
        assert "vindication:" in capsys.readouterr().out

    def test_batch_matches_reference_output(self, capsys):
        # The default path (where --batch users now land) against the
        # reference detectors.
        assert main(["workload", "xalan", "--scale", "0.3",
                     "--vindicate-all", "--variant", "reference"]) == 0
        reference = capsys.readouterr().out
        assert main(["workload", "xalan", "--scale", "0.3",
                     "--vindicate-all"]) == 0
        default = capsys.readouterr().out
        keep = _verdict_lines(reference)
        assert keep
        assert _verdict_lines(default) == keep

    def test_fast_vc_and_batch_compose_to_batch(self, capsys):
        # Both former flags now name one path: ``--variant fast`` is the
        # default, so giving it must not change a line of the report.
        def stable(out: str) -> list:
            return [line for line in out.splitlines() if "ms)" not in line]

        assert main(["litmus", "figure2"]) == 0
        default = stable(capsys.readouterr().out)
        assert main(["litmus", "figure2", "--variant", "fast"]) == 0
        assert stable(capsys.readouterr().out) == default

    def test_variant_resolution_precedence(self):
        from repro.analysis.variants import VariantSpec, coerce

        assert coerce(None) == VariantSpec("fast")
        assert coerce("reference") == VariantSpec("reference")
        spec = VariantSpec("reference")
        assert coerce(spec) is spec
        assert Vindicator(variant=spec).variant_spec is spec
        assert Vindicator(variant="reference").variant == "reference"
        for name in ("warp", "batch"):
            with pytest.raises(ValueError):
                coerce(name)

    def test_kernels_surface_is_python_only(self):
        # One kernel implementation; the backend calls that callers
        # outside the package still make keep answering "python".
        from repro.analysis.variants import VariantSpec
        from repro.core import kernels

        assert kernels.active_backend() == "python"
        assert kernels.set_backend("auto") == "python"
        assert kernels.set_backend("python") == "python"
        with pytest.raises(ValueError):
            kernels.set_backend("compiled")
        assert VariantSpec().apply() == "python"
        doc = Vindicator().run(figure2()).to_document()
        assert doc["kernels"]["backend"] == "python"


class TestBadTraceInput:
    """``analyze`` and ``profile`` fail on unusable input the way
    ``lint`` does: one line on stderr, exit 2 (exit 1 stays the
    sanitizer-violation code)."""

    @pytest.mark.parametrize("text", ["T1 wr x\nT1 bogus y\n",
                                      "T1 wr x\nT1 rel m\n"],
                             ids=["unknown-op", "release-without-acquire"])
    @pytest.mark.parametrize("command", ["analyze", "profile"])
    def test_malformed_trace(self, command, text, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 2:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["analyze", "profile"])
    def test_missing_trace(self, command, tmp_path, capsys):
        assert main([command, str(tmp_path / "absent.txt")]) == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "absent.txt") in err
        assert "Traceback" not in err

    def test_unreadable_trace(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path)]) == 2
        assert "cannot read trace" in capsys.readouterr().err


class TestParser:
    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])
