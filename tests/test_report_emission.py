"""How the program emits its JSON documents.

Every document (``analyze``/``workload``/``lint``/``scan`` ``--json``,
the ``--metrics *.json`` snapshot, the watch directory's results) goes
through :func:`repro.obs.export.write_document`: compact text with
sorted keys from the C encoder, written in blocks of about
``BLOCK_BYTES`` (:func:`repro.obs.export.json_blocks`). Serve replies
are the same blocks in the compact frame layout
(:func:`repro.serve.protocol.frame_blocks`). These tests pin that the
content is the document itself, byte for byte what ``json.dumps``
makes, that a document under one block is one write plus the newline
and no write of a larger one runs over a block by more than one batch,
that every call site round-trips through ``json.load``, and that no
module under ``src/repro`` goes back to an indented ``json.dump``.
They also cover the two stdout contracts around ``--json``: a closed
pipe exits 141 without a traceback, and ``--fast-path`` notes go to
stderr so stdout stays parseable.
"""

import ast
import json
import math
import os
import pathlib
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.cli import EXIT_BROKEN_PIPE, main
from repro.obs.export import (BATCH_RECORDS, BLOCK_BYTES, json_blocks,
                              write_document)
from repro.obs.schema import (
    validate_analyze_document,
    validate_lint_document,
    validate_scan_document,
    validate_snapshot,
)
from repro.runtime import execute
from repro.runtime.workloads import WORKLOADS
from repro.serve.protocol import (MAX_FRAME_BYTES, ProtocolError,
                                  encode_frame, frame_blocks)
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


def document_text(doc):
    return json.dumps(doc, sort_keys=True)


def frame_text(doc):
    return json.dumps(doc, separators=(",", ":"))


def frame_bytes(doc):
    return frame_text(doc).encode("utf-8") + b"\n"


def largest_piece(obj, dumps=document_text):
    """The longest text one C-encoder call makes while ``obj`` is
    encoded in blocks: a batch of ``BATCH_RECORDS`` records of a list,
    a shorter list, a dict of scalars, a key or a scalar. A dict that
    holds a list or a dict is walked, key by key."""
    if isinstance(obj, dict) and any(type(value) in (dict, list, tuple)
                                     for value in obj.values()):
        return max(max(len(dumps({key: 0})), largest_piece(value, dumps))
                   for key, value in obj.items())
    if isinstance(obj, (list, tuple)):
        return max(len(dumps(obj[start:start + BATCH_RECORDS]))
                   for start in range(0, max(len(obj), 1), BATCH_RECORDS))
    return len(dumps(obj))


def records(count, first):
    """``count`` small records, as a detector's race list holds them."""
    return [{"eid": first + i, "name": f"r{i} \u00e9\"\n",
             "pair": (first + i, i / 7)} for i in range(count)]


#: List lengths around a batch boundary, and one of many batches.
LIST_SIZES = (0, BATCH_RECORDS - 1, BATCH_RECORDS, BATCH_RECORDS + 1, 10_000)

SCALARS = (st.none() | st.booleans() | st.integers()
           | st.floats(allow_nan=True, allow_infinity=True)
           | st.sampled_from([math.nan, math.inf, -math.inf])
           | st.text(max_size=12)
           | st.sampled_from(["", "\"\\/\b\f\n\r\t", "\u00e9\u2028\U0001f600",
                              "\x00\x1f\x7f"]))
RECORD_LISTS = st.builds(records, st.sampled_from(LIST_SIZES),
                         st.integers(0, 1000))
NUMBER_KEYS = st.integers() | st.booleans() | st.floats(allow_nan=True)


def containers(children):
    # json.dumps(sort_keys=True) sorts a dict's keys, so one dict's keys
    # must be comparable: all str, all numbers, or a lone None.
    return (st.lists(children, max_size=4)
            | st.lists(children, max_size=3).map(tuple)
            | st.dictionaries(st.text(max_size=8), children, max_size=4)
            | st.dictionaries(NUMBER_KEYS, children, max_size=3)
            | st.builds(lambda value: {None: value}, children))


DOCUMENTS = st.dictionaries(
    st.text(max_size=8),
    st.recursive(SCALARS | RECORD_LISTS, containers, max_leaves=8),
    max_size=5)


class TestBlocks:
    """``json_blocks`` and ``frame_blocks`` are ``json.dumps`` cut
    into bounded blocks. The fixed cases come first: under ``-x`` a
    batch fault stops there, before hypothesis spends minutes
    shrinking documents of 10,000-record lists."""

    @pytest.mark.parametrize("size", LIST_SIZES)
    @pytest.mark.parametrize("depth", [0, 1, 3])
    def test_record_lists_at_depth(self, size, depth):
        doc = {"z": 1, "races": records(size, 5), "a": [[]], "e": {}}
        for level in range(depth):
            doc = {f"k{level}": doc, "n": level, "t": ({"x": (1, 2)},)}
        assert "".join(json_blocks(doc)) == document_text(doc)
        assert b"".join(frame_blocks(doc)) == frame_bytes(doc)
        for block in json_blocks(doc):
            assert len(block) <= BLOCK_BYTES + largest_piece(doc)

    def test_top_level_scalars_and_lists(self):
        for doc in (None, 3, "\u00e9", math.nan, [], (), records(600, 0),
                    tuple(range(1000)), [records(300, 0)] * 2):
            assert "".join(json_blocks(doc)) == document_text(doc)
            assert "".join(json_blocks(doc, compact=True)) == frame_text(doc)

    def test_frame_over_the_cap_is_too_large(self):
        doc = {"op": "finish", "report": {str(k): records(10_000, k)
                                          for k in range(8)}}
        size = len(frame_bytes(doc))
        assert size > MAX_FRAME_BYTES
        with pytest.raises(ProtocolError) as excinfo:
            frame_blocks(doc)
        assert excinfo.value.code == "too-large"
        assert str(excinfo.value) == (f"frame of {size} bytes exceeds "
                                      f"{MAX_FRAME_BYTES}")

    def test_unsortable_keys_fail_like_dumps(self):
        doc = {"a": [1], 1: {}}
        with pytest.raises(TypeError):
            document_text(doc)
        with pytest.raises(TypeError):
            "".join(json_blocks(doc))
        # Frames keep insertion order, so mixed keys encode.
        assert b"".join(frame_blocks(doc)) == frame_bytes(doc)

    @settings(max_examples=80, deadline=None)
    @given(doc=DOCUMENTS)
    def test_document_blocks_equal_dumps(self, doc):
        stdout = CountingStdout()
        write_document(doc, stdout)
        assert stdout.text() == document_text(doc) + "\n"
        *blocks, newline = stdout.writes
        assert newline == "\n"
        bound = BLOCK_BYTES + largest_piece(doc)
        assert all(len(block) <= bound for block in blocks)
        # Every block but the last is full: the writes are few.
        assert all(len(block) >= BLOCK_BYTES for block in blocks[:-1])
        if len(document_text(doc)) < BLOCK_BYTES:
            assert len(blocks) == 1

    @settings(max_examples=80, deadline=None)
    @given(doc=DOCUMENTS)
    def test_frame_blocks_equal_compact_dumps(self, doc):
        expected = frame_bytes(doc)
        if len(expected) > MAX_FRAME_BYTES:
            with pytest.raises(ProtocolError) as excinfo:
                frame_blocks(doc)
            assert excinfo.value.code == "too-large"
            assert f"frame of {len(expected)} bytes" in str(excinfo.value)
            return
        blocks = frame_blocks(doc)
        assert b"".join(blocks) == encode_frame(doc) == expected
        bound = BLOCK_BYTES + largest_piece(doc, frame_text) + 1
        assert all(len(block) <= bound for block in blocks)
        if len(expected) <= BLOCK_BYTES:
            assert len(blocks) == 1


class TestLargeDocument:
    """The avrora scale-16 e2ebench input (seed 40): a 2.2 MB document
    of 3 x 2,520 races."""

    @pytest.fixture(scope="class")
    def avrora16(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("avrora16") / "avrora16.trace"
        dump_trace(execute(WORKLOADS["avrora"](scale=16), seed=40), path)
        return str(path)

    def test_analyze_json_is_dumps_in_bounded_writes(self, avrora16,
                                                      captured_reports,
                                                      monkeypatch):
        stdout = CountingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["analyze", avrora16, "--json"]) == 0
        [report] = captured_reports
        doc = report.to_document()
        # The bytes json.dumps wrote in one piece before blocks.
        assert stdout.text() == document_text(doc) + "\n"
        assert blank_timings(json.loads(stdout.text())) == blank_timings(doc)
        *blocks, newline = stdout.writes
        assert newline == "\n"
        assert len(blocks) > 20
        bound = BLOCK_BYTES + largest_piece(doc)
        assert all(len(block) <= bound for block in blocks)


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
