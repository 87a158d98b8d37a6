"""Unit tests for the dependency-free schema validator (repro.obs.schema)."""

import pytest

from repro.obs import schema as obs_schema
from repro.obs.schema import (
    SchemaError,
    validate,
    validate_jsonl_lines,
    validate_jsonl_record,
    validate_lint_document,
    validate_scan_document,
    validate_serve_request,
    validate_snapshot,
)


class TestValidator:
    def test_type_checks(self):
        validate(3, {"type": "integer"})
        validate(3.5, {"type": "number"})
        validate(3, {"type": "number"})  # ints are numbers
        with pytest.raises(SchemaError):
            validate("x", {"type": "integer"})

    def test_bool_is_not_an_integer(self):
        # JSON distinguishes true from 1; bool is an int subclass in
        # Python, so the validator must special-case it.
        with pytest.raises(SchemaError):
            validate(True, {"type": "integer"})
        validate(True, {"type": "boolean"})

    def test_union_types(self):
        schema = {"type": ["string", "null"]}
        validate("x", schema)
        validate(None, schema)
        with pytest.raises(SchemaError):
            validate(3, schema)

    def test_required_and_additional_properties(self):
        schema = {"type": "object", "required": ["a"],
                  "additionalProperties": False,
                  "properties": {"a": {"type": "integer"}}}
        validate({"a": 1}, schema)
        with pytest.raises(SchemaError, match="missing required key"):
            validate({}, schema)
        with pytest.raises(SchemaError, match="unexpected keys"):
            validate({"a": 1, "b": 2}, schema)

    def test_additional_properties_schema(self):
        schema = {"type": "object",
                  "additionalProperties": {"type": "number"}}
        validate({"x": 1, "y": 2.5}, schema)
        with pytest.raises(SchemaError):
            validate({"x": "not a number"}, schema)

    def test_items_and_enum(self):
        validate([1, 2], {"type": "array", "items": {"type": "integer"}})
        with pytest.raises(SchemaError, match=r"\[1\]"):
            validate([1, "x"], {"type": "array",
                                "items": {"type": "integer"}})
        with pytest.raises(SchemaError, match="enum"):
            validate("c", {"enum": ["a", "b"]})

    def test_ref_recursion(self):
        node = {"type": "object", "required": ["name"],
                "properties": {"name": {"type": "string"},
                               "kids": {"type": "array",
                                        "items": {"$ref": "node"}}}}
        defs = {"node": node}
        validate({"name": "a", "kids": [{"name": "b", "kids": []}]},
                 node, defs=defs)
        with pytest.raises(SchemaError, match=r"kids\[0\]"):
            validate({"name": "a", "kids": [{"kids": []}]}, node, defs=defs)

    def test_unresolvable_ref(self):
        with pytest.raises(SchemaError, match="unresolvable"):
            validate({}, {"$ref": "nowhere"})

    def test_error_names_the_path(self):
        schema = {"type": "object",
                  "properties": {"a": {"type": "object",
                                       "properties": {
                                           "b": {"type": "integer"}}}}}
        with pytest.raises(SchemaError) as err:
            validate({"a": {"b": "x"}}, schema)
        assert err.value.path == "$.a.b"


class TestEventsRequest:
    """An ``events`` request's lines are checked in one pass; the error
    names the first misfit exactly as validating item by item does."""

    LINES = [f"T1 wr x{i}" for i in range(150)]

    @staticmethod
    def error(lines):
        with pytest.raises(SchemaError) as err:
            validate_serve_request(
                {"op": "events", "session": "s", "lines": lines})
        return err.value.path, str(err.value)

    @pytest.mark.parametrize("position", [0, 75, 149])
    @pytest.mark.parametrize("bad", [7, None, 2.5, True, ["T1 wr x"]])
    def test_non_string_line(self, position, bad):
        lines = list(self.LINES)
        if position < 149:
            lines[149] = 3  # a later misfit is not the one named
        lines[position] = bad
        path = f"$.lines[{position}]"
        with pytest.raises(SchemaError) as one:
            validate(bad, {"type": "string"}, path)
        assert self.error(lines) == (path, str(one.value))
        assert self.error(lines)[1] == (
            f"{path}: expected string, got {type(bad).__name__} "
            f"({bad!r:.80})")

    def test_non_list_lines(self):
        assert self.error("T1 wr x") == (
            "$.lines", "$.lines: expected array, got str ('T1 wr x')")

    def test_well_formed(self):
        assert validate_serve_request(
            {"op": "events", "session": "s", "lines": self.LINES}) == "events"
        assert validate_serve_request(
            {"op": "events", "session": "s", "lines": []}) == "events"

    def test_integer_items_still_reject_bools(self):
        schema = {"type": "array", "items": {"type": "integer"}}
        validate([1, 2, 3], schema)
        with pytest.raises(SchemaError) as err:
            validate([1, True, 3], schema)
        assert err.value.path == "$[1]"


class TestStreamGrammar:
    META = '{"type":"meta","schema":"vindicator.obs/1"}'
    SPAN = '{"type":"span","name":"s","elapsed_seconds":0.1,"depth":0}'
    METRICS = ('{"type":"metrics","metrics":'
               '{"counters":{},"gauges":{},"histograms":{}}}')

    def test_valid_stream(self):
        counts = validate_jsonl_lines([self.META, self.SPAN, self.METRICS])
        assert counts == {"meta": 1, "span": 1, "metrics": 1}

    def test_blank_lines_are_skipped(self):
        validate_jsonl_lines([self.META, "", self.METRICS, "  "])

    def test_must_start_with_meta(self):
        with pytest.raises(SchemaError, match="first record"):
            validate_jsonl_lines([self.SPAN, self.METRICS])

    def test_must_end_with_exactly_one_metrics(self):
        with pytest.raises(SchemaError, match="metrics"):
            validate_jsonl_lines([self.META, self.SPAN])
        with pytest.raises(SchemaError, match="metrics"):
            validate_jsonl_lines([self.META, self.METRICS, self.METRICS])
        with pytest.raises(SchemaError, match="metrics"):
            validate_jsonl_lines([self.META, self.METRICS, self.SPAN])

    def test_empty_stream_rejected(self):
        with pytest.raises(SchemaError, match="empty"):
            validate_jsonl_lines([])

    def test_invalid_json_names_the_line(self):
        with pytest.raises(SchemaError, match="f:2"):
            validate_jsonl_lines([self.META, "{nope"], source="f")

    def test_unknown_record_type(self):
        with pytest.raises(SchemaError, match="unknown record type"):
            validate_jsonl_record({"type": "mystery"})

    def test_span_record_rejects_extra_keys(self):
        with pytest.raises(SchemaError, match="unexpected keys"):
            validate_jsonl_record(
                {"type": "span", "name": "s", "elapsed_seconds": 0.1,
                 "depth": 0, "surprise": 1})


class TestSnapshotSchema:
    def test_minimal_snapshot(self):
        validate_snapshot({
            "schema": "vindicator.obs-snapshot/1",
            "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
            "spans": [],
        })

    def test_wrong_schema_tag_rejected(self):
        with pytest.raises(SchemaError, match="enum"):
            validate_snapshot({
                "schema": "vindicator.obs-snapshot/2",
                "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
                "spans": [],
            })

    def test_nested_span_tree_validates(self):
        validate_snapshot({
            "schema": "vindicator.obs-snapshot/1",
            "metrics": {"counters": {"a": 1}, "gauges": {},
                        "histograms": {"h": {"buckets": [1.0],
                                             "counts": [0, 1],
                                             "sum": 2.0, "count": 1}}},
            "spans": [{"name": "root", "elapsed_seconds": 0.5,
                       "children": [{"name": "kid",
                                     "elapsed_seconds": 0.25}]}],
        })
        with pytest.raises(SchemaError, match=r"children\[0\]"):
            validate_snapshot({
                "schema": "vindicator.obs-snapshot/1",
                "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
                "spans": [{"name": "root", "elapsed_seconds": 0.5,
                           "children": [{"elapsed_seconds": 0.25}]}],
            })


class TestLintSchema:
    def document(self):
        return {
            "schema": "vindicator.lint/1",
            "source": "t.txt",
            "events": 3,
            "summary": {"findings": 1, "errors": 1, "warnings": 0,
                        "notes": 0},
            "findings": [{"code": "SA101", "severity": "error",
                          "message": "boom", "event_index": 2,
                          "line": 3}],
        }

    def test_valid_document(self):
        validate_lint_document(self.document())

    def test_schema_id_matches_the_producer(self):
        from repro.static.lint import LINT_SCHEMA_ID
        assert obs_schema.LINT_SCHEMA_ID == LINT_SCHEMA_ID

    def test_real_document_validates(self):
        from repro.static.lint import lint_document, lint_events
        from repro.traces.litmus import figure1
        trace = figure1()
        diags = lint_events(trace.events)
        validate_lint_document(
            lint_document("t.txt", len(trace.events), diags, {}))

    def test_bad_severity_rejected(self):
        doc = self.document()
        doc["findings"][0]["severity"] = "fatal"
        with pytest.raises(SchemaError, match="enum"):
            validate_lint_document(doc)

    def test_extra_keys_rejected(self):
        doc = self.document()
        doc["surprise"] = 1
        with pytest.raises(SchemaError, match="unexpected keys"):
            validate_lint_document(doc)


class TestScanSchema:
    def document(self):
        from repro.static.pysrc import scan_path
        return scan_path("examples/broken_cache.py").to_document()

    def test_real_document_validates(self):
        validate_scan_document(self.document())

    def test_schema_id_matches_the_producer(self):
        from repro.static.pysrc import SCAN_SCHEMA_ID
        assert obs_schema.SCAN_SCHEMA_ID == SCAN_SCHEMA_ID

    def test_wrong_schema_tag_rejected(self):
        doc = self.document()
        doc["schema"] = "vindicator.scan/2"
        with pytest.raises(SchemaError, match="enum"):
            validate_scan_document(doc)

    def test_bad_tier_rejected(self):
        doc = self.document()
        doc["modules"][0]["plan"][0]["tier"] = "mysterious"
        with pytest.raises(SchemaError, match="enum"):
            validate_scan_document(doc)

    def test_missing_plan_rejected(self):
        doc = self.document()
        del doc["modules"][0]["plan"]
        with pytest.raises(SchemaError, match="missing required key"):
            validate_scan_document(doc)
