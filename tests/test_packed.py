"""The packed trace encoding round-trips exactly and pickles compactly."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import execute
from repro.runtime.workloads import WORKLOADS
from repro.traces.io import loads_trace
from repro.traces.gen import GeneratorConfig, random_trace
from repro.traces.litmus import ALL as LITMUS
from repro.traces.packed import KIND_ORDER, PackedTrace, pack


def workload_trace(name="avrora", scale=0.2, seed=0):
    """A loc-bearing trace (the generator never emits source locations;
    workload schedulers do)."""
    return execute(WORKLOADS[name](scale=scale), seed=seed)


def assert_round_trip(trace):
    packed = pack(trace)
    restored = packed.unpack()
    assert len(packed) == len(trace)
    assert len(restored) == len(trace)
    for orig, back in zip(trace.events, restored.events):
        assert (orig.eid, orig.tid, orig.kind, orig.target, orig.loc) == \
               (back.eid, back.tid, back.kind, back.target, back.loc)
    assert list(restored.local_time) == list(trace.local_time)
    assert restored.provenance == trace.provenance
    return packed


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(LITMUS))
    def test_litmus(self, name):
        assert_round_trip(LITMUS[name]())

    def test_workload_trace_with_locs(self):
        packed = assert_round_trip(workload_trace())
        assert packed.locs  # locs must survive for document bit-identity

    def test_provenance_is_copied_not_aliased(self):
        trace = random_trace(1, GeneratorConfig(threads=2, events=20))
        packed = pack(trace)
        packed.provenance["tampered"] = True
        assert "tampered" not in trace.provenance
        restored = packed.unpack()
        restored.provenance["also"] = True
        assert "also" not in packed.provenance

    def test_empty_trace(self):
        trace = loads_trace("")
        packed = assert_round_trip(trace)
        assert len(packed) == 0
        assert packed.nbytes() == 0

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000),
           threads=st.integers(2, 4), events=st.integers(1, 50),
           use_fork_join=st.booleans())
    def test_random(self, seed, threads, events, use_fork_join):
        assert_round_trip(random_trace(seed, GeneratorConfig(
            threads=threads, events=events, use_fork_join=use_fork_join)))


class TestEncoding:
    def test_kind_codes_cover_every_kind(self):
        trace = LITMUS["figure1"]()
        packed = pack(trace)
        assert all(0 <= code < len(KIND_ORDER) for code in packed.kinds)

    def test_interning_tables_have_no_duplicates(self):
        packed = pack(workload_trace())
        assert len(set(packed.tids)) == len(packed.tids)
        assert len(set(packed.targets)) == len(packed.targets)
        assert len(set(packed.locs)) == len(packed.locs)

    def test_none_target_encodes_as_minus_one(self):
        trace = LITMUS["figure1"]()
        packed = pack(trace)
        for e, t_i in zip(trace.events, packed.target_idx):
            assert (t_i == -1) == (e.target is None)

    def test_nbytes_counts_fixed_width_columns(self):
        trace = random_trace(2, GeneratorConfig(threads=3, events=40))
        packed = pack(trace)
        expected = sum(len(col) * col.itemsize
                       for col in (packed.kinds, packed.tid_idx,
                                   packed.target_idx, packed.loc_idx,
                                   packed.local_time))
        assert packed.nbytes() == expected
        # 1 + 4 + 4 + 4 + 4 bytes per event.
        assert packed.nbytes() == 17 * len(trace)


class TestPickle:
    def test_pickle_round_trip(self):
        trace = workload_trace(seed=5)
        packed = pack(trace)
        clone = pickle.loads(pickle.dumps(packed))
        assert isinstance(clone, PackedTrace)
        restored = clone.unpack()
        assert [(e.eid, e.tid, e.kind, e.target, e.loc)
                for e in restored.events] == \
               [(e.eid, e.tid, e.kind, e.target, e.loc)
                for e in trace.events]
        assert restored.provenance == trace.provenance

    def test_packed_pickle_is_smaller_than_trace_pickle(self):
        # A Trace is columns now (its pickle is ~1.5x the packed one);
        # the packed form still halves the trace as Event objects.
        trace = workload_trace(scale=0.5)
        packed_size = len(pickle.dumps(pack(trace)))
        assert packed_size < len(pickle.dumps(trace))
        events_size = len(pickle.dumps(list(trace.events)))
        assert packed_size < events_size / 2
