"""How the program emits its JSON documents.

Every document (``analyze``/``workload``/``lint``/``scan`` ``--json``,
the ``--metrics *.json`` snapshot, the watch directory's results) goes
through :func:`repro.obs.export.write_document`: one compact C-encoder
pass with sorted keys, written once. These tests pin that the content
is the document itself, that the write is one call plus the newline,
that every call site round-trips through ``json.load``, and that no
module under ``src/repro`` goes back to an indented ``json.dump``.
They also cover the two stdout contracts around ``--json``: a closed
pipe exits 141 without a traceback, and ``--fast-path`` notes go to
stderr so stdout stays parseable.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys
import threading

import pytest

from repro import cli
from repro.cli import EXIT_BROKEN_PIPE, main
from repro.obs.export import write_document
from repro.obs.schema import (
    validate_analyze_document,
    validate_lint_document,
    validate_scan_document,
    validate_snapshot,
)
from repro.serve.watch import Watcher
from repro.traces.io import dump_trace
from repro.traces.litmus import figure2

from documents import blank_timings

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"
EXAMPLES = REPO_ROOT / "examples"


class CountingStdout:
    """A stdout stub that records every ``write`` call."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass

    def text(self):
        return "".join(self.writes)


@pytest.fixture
def captured_reports(monkeypatch):
    """Records the report of every ``Vindicator.run`` the CLI makes."""
    reports = []
    run = cli.Vindicator.run

    def recording_run(self, trace):
        report = run(self, trace)
        reports.append(report)
        return report

    monkeypatch.setattr(cli.Vindicator, "run", recording_run)
    return reports


@pytest.fixture
def litmus_file(tmp_path):
    path = tmp_path / "figure2.trace"
    dump_trace(figure2(), path)
    return str(path)


ANALYZE_RUNS = {
    "litmus": lambda trace: ["analyze", trace, "--vindicate-all", "--json"],
    "xalan": lambda trace: ["workload", "xalan", "--scale", "1",
                            "--vindicate-all", "--json"],
}


class TestAnalyzeDocument:
    @pytest.mark.parametrize("run", sorted(ANALYZE_RUNS))
    def test_stdout_is_the_report_document(self, run, litmus_file,
                                           captured_reports, monkeypatch):
        stdout = CountingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(ANALYZE_RUNS[run](litmus_file)) == 0
        [report] = captured_reports
        emitted = json.loads(stdout.text())
        validate_analyze_document(emitted)
        expected = json.loads(json.dumps(report.to_document(),
                                         sort_keys=True))
        assert blank_timings(emitted) == blank_timings(expected)
        if run == "xalan":
            assert emitted["vindications"], "no race was vindicated"

    @pytest.mark.parametrize("run", sorted(ANALYZE_RUNS))
    def test_body_is_one_write_plus_newline(self, run, litmus_file,
                                            monkeypatch):
        stdout = CountingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(ANALYZE_RUNS[run](litmus_file)) == 0
        assert len(stdout.writes) == 2, len(stdout.writes)
        body, newline = stdout.writes
        assert newline == "\n"
        # Compact, keys sorted: the C encoder's default layout.
        assert body == json.dumps(json.loads(body), sort_keys=True)

    def test_metrics_attribute_document_and_emit(self, litmus_file,
                                                 tmp_path, capsys):
        metrics = tmp_path / "run.jsonl"
        assert main(["--metrics", str(metrics), "analyze", litmus_file,
                     "--json"]) == 0
        json.loads(capsys.readouterr().out)
        spans = [json.loads(line) for line in metrics.read_text().splitlines()]
        names = [r["name"] for r in spans if r["type"] == "span"]
        assert names.count("report.document") == 1
        assert names.count("report.emit") == 1
        # The document is built before it is written.
        assert names.index("report.document") < names.index("report.emit")


class TestEveryCallSiteRoundTrips:
    def test_write_document(self, tmp_path):
        doc = {"b": [1, 2.5, None], "a": {"z": "x", "y": True}}
        path = tmp_path / "doc.json"
        with open(path, "w", encoding="utf-8") as fh:
            write_document(doc, fh)
        text = path.read_text()
        assert text == '{"a": {"y": true, "z": "x"}, "b": [1, 2.5, null]}\n'
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh) == doc

    def test_lint(self, litmus_file, capsys):
        assert main(["lint", litmus_file, "--json"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        validate_lint_document(doc)
        assert out == json.dumps(doc, sort_keys=True) + "\n"

    def test_scan(self, capsys):
        assert main(["scan", str(EXAMPLES), "--json"]) == 1
        out = capsys.readouterr().out
        doc = json.loads(out)
        validate_scan_document(doc)
        assert out == json.dumps(doc, sort_keys=True) + "\n"

    def test_metrics_snapshot(self, litmus_file, tmp_path, capsys):
        path = tmp_path / "x.json"
        assert main(["--metrics", str(path), "analyze", litmus_file]) == 0
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        validate_snapshot(doc)
        assert path.read_text() == json.dumps(doc, sort_keys=True) + "\n"

    @pytest.mark.parametrize("ok", [True, False])
    def test_watch_directory_results(self, ok, tmp_path):
        result = {"ok": ok, "session": "watch/job",
                  "report": {"schema": "vindicator.analyze/1", "n": [3, 1]}}
        requests = []

        def route(request):
            requests.append(request["op"])
            return result if request["op"] == "finish" else {"ok": True}

        (tmp_path / "job.trace").write_text("T1 wr x\n", encoding="utf-8")
        watcher = Watcher(str(tmp_path), route, threading.Event())
        assert watcher.scan_once() == 1
        assert requests == ["hello", "events", "finish"]
        out = tmp_path / ("job.result.json" if ok else "job.error.json")
        with open(out, encoding="utf-8") as fh:
            assert json.load(fh) == result
        assert out.read_text() == json.dumps(result, sort_keys=True) + "\n"
        assert not list(tmp_path.glob("*.tmp"))


class TestStdoutContracts:
    def test_fast_path_json_keeps_stdout_parseable(self, capsys):
        assert main(["workload", "avrora", "--scale", "0.5", "--fast-path",
                     "--json"]) == 0
        captured = capsys.readouterr()
        validate_analyze_document(json.loads(captured.out))
        assert "fast path removed" in captured.err

    @pytest.mark.parametrize("command", [
        ["analyze", "{trace}", "--json"],
        ["workload", "avrora", "--scale", "0.5", "--json"],
        ["litmus", "figure2"],
    ], ids=["analyze-json", "workload-json", "litmus-text"])
    def test_closed_pipe_exits_141_without_traceback(self, command,
                                                     litmus_file):
        argv = [arg.replace("{trace}", litmus_file) for arg in command]
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first write
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", *argv], stdout=write_end,
                stderr=subprocess.PIPE, text=True, timeout=120)
        finally:
            os.close(write_end)
        assert "Traceback" not in proc.stderr, proc.stderr
        assert "BrokenPipeError" not in proc.stderr, proc.stderr
        assert proc.returncode == EXIT_BROKEN_PIPE == 141


def _indented_dumps(path):
    """Lines where ``path`` calls ``json.dump``/``json.dumps`` with an
    ``indent`` keyword (which forces the pure-Python encoder)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute)
                and func.attr in ("dump", "dumps")
                and isinstance(func.value, ast.Name)
                and func.value.id == "json"
                and any(kw.arg == "indent" for kw in node.keywords)):
            found.append(node.lineno)
    return found


@pytest.mark.parametrize(
    "path", sorted(SRC_ROOT.rglob("*.py")),
    ids=lambda p: str(p.relative_to(REPO_ROOT)))
def test_no_indented_json_dump(path):
    lines = _indented_dumps(path)
    assert not lines, "\n".join(
        f"{path}:{line}: json.dump with indent; use "
        "repro.obs.export.write_document" for line in lines)
