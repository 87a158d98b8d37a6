"""The canonical packed byte encoding and the determinism hash.

These are the two foundations of serve's checkpoint/resume guarantee:

* ``to_bytes``/``from_bytes`` is a *canonical* codec — decode then
  re-encode is byte-identical, so a checkpoint's payload has exactly
  one valid spelling;
* the determinism hash is a pure function of the event sequence —
  invariant under chunk splits, builder vs. batch construction, and
  encode/decode round trips;
* ``from_bytes`` treats its input as untrusted: any truncation or
  mid-frame corruption surfaces as
  :class:`~repro.core.exceptions.MalformedTraceError` (with an event
  index where one is known), never a raw ``struct.error`` /
  ``IndexError`` / ``KeyError``.
"""

import json
from operator import attrgetter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.events import Event, EventKind
from repro.core.exceptions import MalformedTraceError, TraceFormatError
from repro.core.trace import Trace
from repro.runtime import execute
from repro.runtime.workloads import WORKLOADS
from repro.traces.gen import GeneratorConfig, random_trace
from repro.traces.io import format_event, parse_event_line
from repro.traces.litmus import ALL as LITMUS
from repro.serve.streaming import StreamingTrace
from repro.traces.packed import (PACKED_MAGIC, TraceHasher, event_fingerprint,
                                 from_bytes, pack, to_bytes, trace_hash)


def workload_trace(name="avrora", scale=0.2, seed=0):
    return execute(WORKLOADS[name](scale=scale), seed=seed)


def gen_trace(seed, threads=3, events=60, use_fork_join=True):
    return random_trace(seed, GeneratorConfig(
        threads=threads, events=events, use_fork_join=use_fork_join))


def assert_columns_equal(a, b):
    assert list(a.kinds) == list(b.kinds)
    assert list(a.tid_idx) == list(b.tid_idx)
    assert list(a.target_idx) == list(b.target_idx)
    assert list(a.loc_idx) == list(b.loc_idx)
    assert list(a.local_time) == list(b.local_time)
    assert list(a.tids) == list(b.tids)
    assert list(a.targets) == list(b.targets)
    assert list(a.locs) == list(b.locs)
    assert a.provenance == b.provenance


class TestCanonicalCodec:
    @pytest.mark.parametrize("name", sorted(LITMUS))
    def test_litmus_round_trip_is_byte_stable(self, name):
        packed = pack(LITMUS[name]())
        data = to_bytes(packed)
        assert data.startswith(PACKED_MAGIC)
        decoded = from_bytes(data)
        assert_columns_equal(decoded, packed)
        assert to_bytes(decoded) == data

    def test_workload_with_locs_round_trips(self):
        packed = pack(workload_trace())
        assert packed.locs
        data = to_bytes(packed)
        assert to_bytes(from_bytes(data)) == data

    def test_empty_trace_round_trips(self):
        stream = StreamingTrace(provenance={"kind": "empty"})
        data = to_bytes(pack(stream))
        decoded = from_bytes(data)
        assert len(decoded) == 0
        assert decoded.provenance == {"kind": "empty"}
        assert to_bytes(decoded) == data

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), threads=st.integers(2, 4),
           events=st.integers(1, 60), use_fork_join=st.booleans())
    def test_random_round_trip_is_byte_stable(self, seed, threads, events,
                                              use_fork_join):
        packed = pack(gen_trace(seed, threads, events, use_fork_join))
        data = to_bytes(packed)
        decoded = from_bytes(data)
        assert_columns_equal(decoded, packed)
        assert to_bytes(decoded) == data

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), events=st.integers(1, 60))
    def test_builder_matches_batch_pack(self, seed, events):
        # A checkpoint packs the streaming trace itself: a mid-stream
        # snapshot is the prefix's pack and stays so after later
        # appends.
        trace = gen_trace(seed, events=events)
        stream = StreamingTrace(provenance=trace.provenance)
        half = len(trace) // 2
        for event in trace.events[:half]:
            stream.append(event)
        snapshot = pack(stream)
        for event in trace.events[half:]:
            stream.append(event)
        assert to_bytes(pack(stream)) == to_bytes(pack(trace))
        prefix = pack(Trace(trace.events[:half]))
        prefix.provenance = dict(trace.provenance)
        assert to_bytes(snapshot) == to_bytes(prefix)

    def test_stream_packs_like_batch(self):
        # Begin/end carrying a target; a thread forked before it runs
        # and another thread's first event; a lock and a variable
        # sharing a name with a thread.
        events = [
            Event(0, "T1", EventKind.BEGIN, target="x", loc="a.c:1"),
            Event(1, "T1", EventKind.FORK, target="T3"),
            Event(2, "T2", EventKind.WRITE, target="T3", loc="a.c:2"),
            Event(3, "T3", EventKind.ACQUIRE, target="T1"),
            Event(4, "T3", EventKind.RELEASE, target="T1", loc="a.c:2"),
            Event(5, "T1", EventKind.JOIN, target="T3"),
            Event(6, "T2", EventKind.END, target=7),
        ]
        stream = StreamingTrace()
        for event in events:
            stream.append(event)
        assert to_bytes(pack(stream)) == to_bytes(pack(Trace(events)))
        fields = attrgetter("eid", "tid", "kind", "target", "loc")
        assert list(map(fields, stream.events)) == list(map(fields, events))

    def test_workload_stream_packs_like_batch(self):
        trace = workload_trace()
        stream = StreamingTrace(provenance=trace.provenance)
        for event in trace:
            stream.append(event)
        packed = pack(stream)
        assert packed.locs
        assert to_bytes(packed) == to_bytes(pack(trace))
        fields = attrgetter("eid", "tid", "kind", "target", "loc")
        assert list(map(fields, stream.events)) == \
            list(map(fields, trace.events))

    def test_unpacked_events_match(self):
        trace = workload_trace()
        restored = from_bytes(to_bytes(pack(trace))).unpack()
        for orig, back in zip(trace.events, restored.events):
            assert (orig.eid, orig.tid, orig.kind, orig.target, orig.loc) \
                == (back.eid, back.tid, back.kind, back.target, back.loc)


class TestDeterminismHash:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000), events=st.integers(1, 80),
           data=st.data())
    def test_chunk_split_invariance(self, seed, events, data):
        """The hash depends only on the event sequence, never on how
        the stream was chunked — the property that lets serve verify a
        resumed shard against an uninterrupted run."""
        trace = gen_trace(seed, events=events)
        whole = trace_hash(trace)
        cuts = sorted(data.draw(st.lists(
            st.integers(0, len(trace)), max_size=5)))
        hasher = TraceHasher()
        previous = 0
        for cut in cuts + [len(trace)]:
            for event in trace.events[previous:cut]:
                hasher.update(event)
            previous = cut
        assert hasher.hexdigest() == whole
        assert hasher.count == len(trace)

    def test_copy_is_independent(self):
        trace = gen_trace(3, events=20)
        hasher = TraceHasher()
        for event in trace.events[:10]:
            hasher.update(event)
        snapshot = hasher.copy()
        for event in trace.events[10:]:
            hasher.update(event)
        assert snapshot.count == 10
        assert hasher.hexdigest() == trace_hash(trace)
        assert snapshot.hexdigest() == trace_hash(trace.events[:10])

    def test_hash_distinguishes_field_changes(self):
        trace = gen_trace(4, events=30)
        base = trace_hash(trace)
        # Dropping any single event changes the hash.
        for skip in (0, len(trace) // 2, len(trace) - 1):
            events = [e for e in trace.events if e.eid != skip]
            assert trace_hash(events) != base

    def test_survives_encode_decode(self):
        trace = workload_trace()
        restored = from_bytes(to_bytes(pack(trace))).unpack()
        assert trace_hash(restored) == trace_hash(trace)

    def test_fingerprint_bytes_are_pinned(self):
        """Checkpoint headers carry this digest, so a checkpoint written
        by an earlier build must resume: the byte format is fixed."""
        events = [Event(0, 1, EventKind.BEGIN, None),
                  Event(1, "main", EventKind.WRITE, "x", "A.java:3"),
                  Event(2, 1, EventKind.FORK, "wé", None),
                  Event(3, 7, EventKind.VOLATILE_READ, 5, "l o c")]
        assert [event_fingerprint(e) for e in events] == [
            b"0\x1f1\x1fBEGIN\x1fNone\x1fNone\x1e",
            b"1\x1f'main'\x1fWRITE\x1f'x'\x1f'A.java:3'\x1e",
            b"2\x1f1\x1fFORK\x1f'w\xc3\xa9'\x1fNone\x1e",
            b"3\x1f7\x1fVOLATILE_READ\x1f5\x1f'l o c'\x1e"]
        assert trace_hash(events) == ("bf53113ff3fb64509d6bb88fd8ea96d6"
                                      "fb69ed9eabf8c480e23aaa32e7e90e5c")
        assert trace_hash(LITMUS["figure2"]().events) == (
            "0ff766ada2b1e31bf7bb0bca40f0e4d1"
            "49a761861afb0521c7730c2dc8b381d8")


class TestUntrustedInput:
    """Satellite: no byte stream may escape as a raw low-level error."""

    ESCAPEES = (KeyError, IndexError, ValueError, TypeError,
                UnicodeDecodeError, EOFError)

    def _assert_rejects(self, data):
        try:
            from_bytes(data)
        except MalformedTraceError:
            return True
        except self.ESCAPEES as exc:  # pragma: no cover - the bug itself
            pytest.fail(f"raw {type(exc).__name__} escaped from_bytes: {exc}")
        return False

    def test_every_truncation_point_is_malformed(self):
        data = to_bytes(pack(gen_trace(1, events=30)))
        for cut in range(len(data)):
            assert self._assert_rejects(data[:cut]), \
                f"truncation at {cut} was accepted"

    def test_truncated_column_reports_event_index(self):
        packed = pack(gen_trace(2, events=40))
        data = to_bytes(packed)
        # Cut inside the trailing local_time column: the error should
        # name how many complete events the chunk still holds.
        with pytest.raises(MalformedTraceError) as excinfo:
            from_bytes(data[:-7])
        assert excinfo.value.event_index >= 0
        assert excinfo.value.event_index < len(packed)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_single_byte_corruption_never_escapes(self, data):
        blob = bytearray(to_bytes(pack(gen_trace(5, events=25))))
        pos = data.draw(st.integers(0, len(blob) - 1))
        flip = data.draw(st.integers(1, 255))
        blob[pos] ^= flip
        try:
            decoded = from_bytes(bytes(blob))
            # A surviving decode (e.g. a flipped loc character) must
            # still be internally consistent enough to re-encode.
            to_bytes(decoded)
        except MalformedTraceError:
            pass
        except self.ESCAPEES as exc:
            pytest.fail(
                f"byte {pos} ^ {flip}: raw {type(exc).__name__}: {exc}")

    def test_bad_magic(self):
        with pytest.raises(MalformedTraceError):
            from_bytes(b"NOTPACKED" + b"\x00" * 64)

    def test_header_not_json(self):
        data = bytearray(to_bytes(pack(gen_trace(6, events=10))))
        start = len(PACKED_MAGIC) + 8
        data[start] = 0xFF
        assert self._assert_rejects(bytes(data))

    def test_builder_rejects_eid_gap(self):
        trace = gen_trace(7, events=10)
        stream = StreamingTrace()
        stream.append(trace.events[0])
        with pytest.raises(MalformedTraceError) as excinfo:
            stream.append(trace.events[2])  # skipped eid 1
        assert excinfo.value.event_index == 1


class TestEventLineParsing:
    """Satellite: the text-format line parser used by serve ingestion."""

    def test_round_trips_every_litmus_event(self):
        for name in sorted(LITMUS):
            trace = LITMUS[name]()
            for event in trace:
                line = format_event(event)
                back = parse_event_line(line, eid=event.eid)
                assert back is not None
                assert (back.tid, back.kind, back.target, back.loc) == \
                    (event.tid, event.kind, event.target, event.loc)

    def test_blank_and_comment_lines_parse_to_nothing(self):
        assert parse_event_line("", eid=0) is None
        assert parse_event_line("   \n", eid=0) is None
        assert parse_event_line("# comment", eid=0) is None

    @pytest.mark.parametrize("line", [
        "T1",                 # missing operation
        "T1 frobnicate x",    # unknown operation
        "T1 rd",              # access without target
        "T1 join",            # thread op without target
    ])
    def test_bad_lines_raise_with_line_number(self, line):
        with pytest.raises(TraceFormatError) as excinfo:
            parse_event_line(line, eid=0, line_number=17)
        assert excinfo.value.line_number == 17
        assert "line 17" in str(excinfo.value)
