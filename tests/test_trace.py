"""Unit tests for traces: validation, paper notation, the builder, and
the indexing pass that builds the columns."""

import dataclasses
import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.events import Event, EventKind
from repro.core.exceptions import MalformedTraceError, TraceFormatError
from repro.core.trace import Trace, TraceBuilder
from repro.runtime import execute
from repro.runtime.workloads import WORKLOADS
from repro.traces.gen import GeneratorConfig, random_trace
from repro.traces.io import dumps_trace, load_trace, loads_trace


def simple_trace():
    return (TraceBuilder()
            .wr(1, "x")
            .acq(1, "m")
            .wr(1, "y")
            .rel(1, "m")
            .acq(2, "m")
            .rd(2, "y")
            .rel(2, "m")
            .rd(2, "x")
            .build())


class TestValidation:
    def test_eids_must_match_positions(self):
        events = [Event(5, 1, EventKind.WRITE, "x")]
        with pytest.raises(MalformedTraceError, match="eid"):
            Trace(events)

    def test_from_events_renumbers(self):
        events = [Event(5, 1, EventKind.WRITE, "x"),
                  Event(9, 2, EventKind.READ, "x")]
        trace = Trace.from_events(events)
        assert [e.eid for e in trace] == [0, 1]

    def test_double_acquire_rejected(self):
        with pytest.raises(MalformedTraceError, match="already held"):
            TraceBuilder().acq(1, "m").acq(2, "m").build()

    def test_reentrant_acquire_rejected(self):
        with pytest.raises(MalformedTraceError, match="already held"):
            TraceBuilder().acq(1, "m").acq(1, "m").build()

    def test_release_without_acquire_rejected(self):
        with pytest.raises(MalformedTraceError, match="not held"):
            TraceBuilder().rel(1, "m").build()

    def test_release_by_wrong_thread_rejected(self):
        with pytest.raises(MalformedTraceError, match="not held"):
            TraceBuilder().acq(1, "m").rel(2, "m").build()

    def test_unnested_release_rejected(self):
        with pytest.raises(MalformedTraceError, match="nesting"):
            TraceBuilder().acq(1, "m").acq(1, "n").rel(1, "m").build()

    def test_nested_locks_accepted(self):
        trace = (TraceBuilder()
                 .acq(1, "m").acq(1, "n").rel(1, "n").rel(1, "m").build())
        assert len(trace) == 4

    def test_open_critical_section_accepted(self):
        trace = TraceBuilder().acq(1, "m").wr(1, "x").build()
        assert len(trace) == 2

    def test_fork_self_rejected(self):
        with pytest.raises(MalformedTraceError, match="forks itself"):
            TraceBuilder().fork(1, 1).build()

    def test_double_fork_rejected(self):
        with pytest.raises(MalformedTraceError, match="forked twice"):
            TraceBuilder().fork(1, 2).fork(3, 2).build()

    def test_event_before_fork_rejected(self):
        with pytest.raises(MalformedTraceError, match="before its fork"):
            TraceBuilder().wr(2, "x").fork(1, 2).build()

    def test_event_after_join_rejected(self):
        with pytest.raises(MalformedTraceError, match="after its join"):
            TraceBuilder().wr(2, "x").join(1, 2).wr(2, "y").build()

    def test_double_join_rejected(self):
        with pytest.raises(MalformedTraceError, match="joined twice"):
            TraceBuilder().join(1, 2).join(1, 2).build()

    def test_begin_must_be_first(self):
        with pytest.raises(MalformedTraceError, match="first"):
            TraceBuilder().wr(1, "x").begin(1).build()

    def test_end_must_be_last(self):
        with pytest.raises(MalformedTraceError, match="last"):
            TraceBuilder().end(1).wr(1, "x").build()

    def test_validation_can_be_disabled(self):
        # Out-of-nesting-order releases are tolerated without validation
        # (lock matching still requires releases to match a held acquire).
        t = (TraceBuilder().acq(1, "m").acq(1, "n").rel(1, "m").rel(1, "n")
             .build(validate=False))
        assert len(t) == 4
        with pytest.raises(MalformedTraceError):
            (TraceBuilder().acq(1, "m").acq(1, "n").rel(1, "m").rel(1, "n")
             .build(validate=True))


class TestPaperNotation:
    def test_acquire_of(self):
        trace = simple_trace()
        rel_t1 = trace[3]
        assert trace.acquire_of(rel_t1) == trace[1]

    def test_release_of(self):
        trace = simple_trace()
        assert trace.release_of(trace[1]) == trace[3]
        assert trace.release_of(trace[4]) == trace[6]

    def test_release_of_open_section_is_none(self):
        trace = TraceBuilder().acq(1, "m").wr(1, "x").build()
        assert trace.release_of(trace[0]) is None

    def test_critical_section_members(self):
        trace = simple_trace()
        cs = trace.critical_section(trace[3])
        assert [e.eid for e in cs] == [1, 2, 3]

    def test_critical_section_includes_nested(self):
        trace = (TraceBuilder()
                 .acq(1, "m").acq(1, "n").wr(1, "x").rel(1, "n").rel(1, "m")
                 .build())
        outer = trace.critical_section(trace[4])
        assert [e.eid for e in outer] == [0, 1, 2, 3, 4]
        inner = trace.critical_section(trace[3])
        assert [e.eid for e in inner] == [1, 2, 3]

    def test_held_locks_nested(self):
        trace = (TraceBuilder()
                 .acq(1, "m").acq(1, "n").wr(1, "x").rel(1, "n").rel(1, "m")
                 .build())
        assert trace.held_locks(trace[2]) == ("m", "n")
        assert trace.held_locks(trace[0]) == ("m",)
        assert trace.held_locks(trace[3]) == ("m", "n")
        assert trace.held_locks(trace[4]) == ("m",)

    def test_held_locks_outside_cs_empty(self):
        trace = simple_trace()
        assert trace.held_locks(trace[0]) == ()
        assert trace.held_locks(trace[7]) == ()

    def test_program_ordered(self):
        trace = simple_trace()
        assert trace.program_ordered(trace[0], trace[1])
        assert not trace.program_ordered(trace[1], trace[0])
        assert not trace.program_ordered(trace[0], trace[7])  # cross-thread


class TestAccessors:
    def test_threads_in_first_appearance_order(self):
        assert simple_trace().threads == [1, 2]

    def test_events_of(self):
        trace = simple_trace()
        assert [e.eid for e in trace.events_of(1)] == [0, 1, 2, 3]
        assert trace.events_of("missing") == []

    def test_eids_of(self):
        trace = simple_trace()
        assert list(trace.eids_of(1)) == [0, 1, 2, 3]
        assert list(trace.eids_of("missing")) == []

    def test_local_time_counts_per_thread(self):
        trace = simple_trace()
        assert trace.local_time[0] == 1
        assert trace.local_time[3] == 4
        assert trace.local_time[4] == 1  # thread 2's first event

    def test_variables_and_locks(self):
        trace = simple_trace()
        assert trace.variables() == {"x", "y"}
        assert trace.locks() == {"m"}

    def test_accesses_iterator(self):
        assert sum(1 for _ in simple_trace().accesses()) == 4

    def test_conflicting_pairs(self):
        pairs = {(a.eid, b.eid) for a, b in simple_trace().conflicting_pairs()}
        assert pairs == {(0, 7), (2, 5)}

    def test_len_iter_getitem(self):
        trace = simple_trace()
        assert len(trace) == 8
        assert list(trace)[0] == trace[0]

    def test_repr(self):
        assert "8 events" in repr(simple_trace())


class TestBuilder:
    def test_sync_idiom_expands_to_four_events(self):
        trace = TraceBuilder().sync(1, "o").build()
        kinds = [e.kind for e in trace]
        assert kinds == [EventKind.ACQUIRE, EventKind.READ, EventKind.WRITE,
                         EventKind.RELEASE]
        assert trace[1].target == "oVar"

    def test_builder_loc_propagates(self):
        trace = TraceBuilder().wr(1, "x", loc="A.b():3").build()
        assert trace[0].loc == "A.b():3"

    def test_volatile_ops(self):
        trace = TraceBuilder().vwr(1, "v").vrd(2, "v").build()
        assert trace[0].kind is EventKind.VOLATILE_WRITE
        assert trace[1].kind is EventKind.VOLATILE_READ

    def test_begin_end_markers(self):
        trace = TraceBuilder().begin(1).wr(1, "x").end(1).build()
        assert trace[0].kind is EventKind.BEGIN
        assert trace[2].kind is EventKind.END



# ----------------------------------------------------------------------
# The indexing pass: columns, first errors, parsed events
# ----------------------------------------------------------------------

#: Kinds in code order (``repro.core.events.CODE_*``).
CODE_ORDER = [EventKind.READ, EventKind.WRITE, EventKind.ACQUIRE,
              EventKind.RELEASE, EventKind.FORK, EventKind.JOIN,
              EventKind.VOLATILE_WRITE, EventKind.VOLATILE_READ,
              EventKind.BEGIN, EventKind.END]


def naive_columns(trace):
    """The trace's columns and interning tables, recomputed from the
    events' fields and ``held_locks`` alone."""
    tids = []
    for e in trace.events:
        for tid in ((e.tid, e.target)
                    if e.kind in (EventKind.FORK, EventKind.JOIN)
                    else (e.tid,)):
            if tid not in tids:
                tids.append(tid)
    variables, locks, volatiles = [], [], []

    def intern(table, target):
        if target not in table:
            table.append(target)
        return table.index(target)

    codes, tix, tgt, held, local = [], [], [], [], []
    seen = {}
    for e in trace.events:
        codes.append(CODE_ORDER.index(e.kind))
        tix.append(tids.index(e.tid))
        seen[e.tid] = seen.get(e.tid, 0) + 1
        local.append(seen[e.tid])
        held.append(None)
        if e.is_access:
            tgt.append(intern(variables, e.target))
            if trace.held_locks(e):
                held[-1] = tuple(locks.index(lock)
                                 for lock in trace.held_locks(e))
        elif e.kind.is_lock_op:
            tgt.append(intern(locks, e.target))
        elif e.kind in (EventKind.FORK, EventKind.JOIN):
            tgt.append(tids.index(e.target))
        elif e.kind.is_volatile:
            tgt.append(intern(volatiles, e.target))
        else:
            tgt.append(-1)
    return {"codes": bytes(codes), "tix": tix, "tgt": tgt, "held": held,
            "local_time": local, "tid_names": tids,
            "tid_index": {tid: i for i, tid in enumerate(tids)},
            "var_names": variables, "lock_names": locks,
            "vol_names": volatiles}


def trace_columns(trace):
    return {"codes": bytes(trace.codes), "tix": trace.tix, "tgt": trace.tgt,
            "held": trace.held, "local_time": trace.local_time,
            "tid_names": trace.tid_names, "tid_index": trace.tid_index,
            "var_names": trace.var_names, "lock_names": trace.lock_names,
            "vol_names": trace.vol_names}


class TestColumns:
    """Every table and column of the indexing pass equals a naive
    recomputation, interning order included."""

    def test_litmus(self, litmus_trace):
        assert trace_columns(litmus_trace) == naive_columns(litmus_trace)

    @pytest.mark.parametrize("workload", ["avrora", "xalan", "h2"])
    def test_workloads_at_scale_2(self, workload):
        trace = execute(WORKLOADS[workload](scale=2), seed=0)
        assert trace_columns(trace) == naive_columns(trace)

    def test_parsed_trace(self):
        trace = execute(WORKLOADS["xalan"](scale=2), seed=0)
        parsed = loads_trace(dumps_trace(trace))
        assert trace_columns(parsed) == naive_columns(parsed)
        assert trace_columns(parsed) == trace_columns(trace)

    def test_fork_targets_intern_at_their_fork(self):
        trace = (TraceBuilder()
                 .fork(1, 9).wr(1, "x").fork(1, 2).join(1, 9)
                 .vwr(2, "v").acq(2, "m").rd(2, "x").rel(2, "m")
                 .join(1, 2).fork(1, 7).begin(3).end(3)
                 .build())
        assert trace.tid_names == [1, 9, 2, 7, 3]
        assert trace.threads == [1, 2, 3]
        assert (trace.tgt[0], trace.tgt[2], trace.tgt[9]) == (1, 2, 3)
        assert trace_columns(trace) == naive_columns(trace)

    def test_unvalidated_trace(self):
        trace = (TraceBuilder()
                 .acq(1, "m").acq(1, "n").rel(1, "m").wr(1, "x")
                 .fork(2, 2).begin(2).wr(2, "x")
                 .build(validate=False))
        assert trace_columns(trace) == naive_columns(trace)

    def test_variable_and_lock_sets_read_the_tables(self):
        trace = simple_trace()
        assert trace.variables() == set(trace.var_names) == {"x", "y"}
        assert trace.locks() == set(trace.lock_names) == {"m"}

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000),
           config=st.builds(GeneratorConfig,
                            threads=st.integers(2, 4),
                            events=st.integers(6, 40),
                            variables=st.integers(1, 3),
                            locks=st.integers(1, 3),
                            max_nesting=st.integers(1, 3),
                            use_fork_join=st.booleans(),
                            volatiles=st.integers(0, 1)))
    def test_random_traces(self, seed, config):
        trace = random_trace(seed, config)
        assert trace_columns(trace) == naive_columns(trace)


#: Text traces with two or more structural errors, each with the first
#: error it raised before the loader and the trace shared one indexing
#: pass: ``(message, line, event index)`` with validation on, then off
#: (None: accepted).
MULTI_ERROR_TEXTS = {
    "fork_self_then_unheld_release": (
        "T1 wr x\nT1 fork T1\nT2 rd x\nT2 rel m\n",
        ("line 4: structurally invalid trace: rel(m)@T2#3: releases lock "
         "'m' not held by thread 2", 4, 3),
        ("line 4: structurally invalid trace: rel(m)@T2#3: releases lock "
         "'m' not held by thread 2", 4, 3),
    ),
    "forked_twice_then_joined_twice": (
        "T1 fork T2\nT1 join T2\nT3 fork T2\nT1 join T2\n",
        ("line 3: structurally invalid trace: fork(2)@T3#2: thread 2 "
         "forked twice", 3, 2),
        None,
    ),
    "before_fork_and_end_not_last": (
        "T1 end\nT1 wr x\nT2 wr x\nT1 fork T2\n",
        ("line 3: structurally invalid trace: thread 2 executes event #2 "
         "before its fork #3", 3, 2),
        None,
    ),
    "begin_late_and_end_early": (
        "# header\nT1 wr x\nT1 end\n\nT2 wr y\nT2 begin\nT1 rd y\n",
        ("line 3: structurally invalid trace: end()@T1#1: end is not "
         "thread's last event", 3, 1),
        None,
    ),
    "after_join_and_before_fork": (
        "T2 wr x\nT3 wr y\nT1 join T2\nT1 fork T3\nT2 rd x\n",
        ("line 2: structurally invalid trace: thread 3 executes event #1 "
         "before its fork #3", 2, 1),
        None,
    ),
    "double_acquire_then_unnested": (
        "T1 acq m\nT2 acq m\nT1 acq n\nT1 rel m\n",
        ("line 2: structurally invalid trace: acq(m)@T2#1: lock 'm' already "
         "held by thread 1 (locks are non-reentrant)", 2, 1),
        ("line 4: structurally invalid trace: rel(m)@T1#3: releases lock "
         "'m' not held by thread 1", 4, 3),
    ),
    "unnested_then_fork_self": (
        "T1 acq m\nT1 acq n\nT1 rel m\nT2 fork T2\n",
        ("line 3: structurally invalid trace: rel(m)@T1#2: releases lock "
         "'m' out of nesting order", 3, 2),
        None,
    ),
    "two_ends": (
        "# c\nT1 begin\nT1 end\nT1 end\n",
        ("line 3: structurally invalid trace: end()@T1#1: end is not "
         "thread's last event", 3, 1),
        None,
    ),
    "end_then_begin": (
        "T1 end\nT1 begin\n",
        ("line 1: structurally invalid trace: end()@T1#0: end is not "
         "thread's last event", 1, 0),
        None,
    ),
    "join_twice_then_before_fork": (
        "T2 wr x\nT1 join T3\nT1 fork T2\nT1 join T3\n",
        ("line 4: structurally invalid trace: join(3)@T1#3: thread 3 "
         "joined twice", 4, 3),
        None,
    ),
    "two_before_fork": (
        "T3 wr x\nT2 wr y\nT1 fork T2\nT1 fork T3\n",
        ("line 2: structurally invalid trace: thread 2 executes event #1 "
         "before its fork #2", 2, 1),
        None,
    ),
    "two_after_join": (
        "T2 wr x\nT3 wr y\nT1 join T3\nT1 join T2\nT2 rd x\nT3 rd y\n",
        ("line 6: structurally invalid trace: thread 3 executes event #5 "
         "after its join #2", 6, 5),
        None,
    ),
    "wrong_thread_release_then_double_fork": (
        "T1 fork T3\nT1 fork T3\nT1 acq m\nT2 rel m\n",
        ("line 4: structurally invalid trace: rel(m)@T2#3: releases lock "
         "'m' not held by thread 2", 4, 3),
        ("line 4: structurally invalid trace: rel(m)@T2#3: releases lock "
         "'m' not held by thread 2", 4, 3),
    ),
    "unheld_release_then_bad_op": (
        "T1 rel m\nT1 bogus x\n",
        ("line 2: unknown operation 'bogus'", 2, None),
        ("line 2: unknown operation 'bogus'", 2, None),
    ),
    "fork_self_then_missing_target": (
        "T1 fork T1\n# c\nT1 wr\n",
        ("line 3: operation 'wr' needs a target", 3, None),
        ("line 3: operation 'wr' needs a target", 3, None),
    ),
    "fork_only_target_errors": (
        "T1 fork T9\nT1 join T9\nT1 join T9\nT2 wr x\n",
        ("line 3: structurally invalid trace: join(9)@T1#2: thread 9 "
         "joined twice", 3, 2),
        None,
    ),
}

_W, _R, _F = EventKind.WRITE, EventKind.RELEASE, EventKind.FORK

#: Event lists with two or more structural errors, with the first error
#: ``(message, event index)`` they raised before the shared pass, with
#: validation on, then off.
MULTI_ERROR_EVENTS = {
    "access_without_target_then_fork_self": (
        [Event(0, 1, _W, None), Event(1, 1, _F, 1)],
        ("wr()@T1#0: access without a target", 0),
        None,
    ),
    "fork_self_then_access_without_target": (
        [Event(0, 1, _F, 1), Event(1, 1, EventKind.READ, None)],
        ("fork(1)@T1#0: thread forks itself", 0),
        None,
    ),
    "access_without_target_then_unheld_release": (
        [Event(0, 1, _W, None), Event(1, 2, _R, "m")],
        ("rel(m)@T2#1: releases lock 'm' not held by thread 2", 1),
        ("rel(m)@T2#1: releases lock 'm' not held by thread 2", 1),
    ),
    "bad_eid_after_lock_error": (
        [Event(0, 1, _R, "m"), Event(5, 1, _W, "x")],
        ("event at position 1 has eid 5; use Trace.from_events to "
         "renumber", 1),
        ("event at position 1 has eid 5; use Trace.from_events to "
         "renumber", 1),
    ),
    "volatile_without_target_then_end_early": (
        [Event(0, 1, EventKind.END, None),
         Event(1, 1, EventKind.VOLATILE_WRITE, None)],
        ("vwr()@T1#1: access without a target", 1),
        None,
    ),
}


class TestFirstErrorKept:
    """Traces with several structural errors raise the same first error
    as before the loader and the trace shared one pass."""

    @pytest.mark.parametrize("name", sorted(MULTI_ERROR_TEXTS))
    @pytest.mark.parametrize("validate", [True, False])
    def test_loader(self, name, validate):
        text, on, off = MULTI_ERROR_TEXTS[name]
        expected = on if validate else off
        if expected is None:
            loads_trace(text, validate=validate)
            return
        with pytest.raises(TraceFormatError) as exc:
            loads_trace(text, validate=validate)
        cause = exc.value.__cause__
        assert (str(exc.value), exc.value.line_number,
                getattr(cause, "event_index", None)) == expected

    @pytest.mark.parametrize("name", sorted(MULTI_ERROR_TEXTS))
    def test_load_trace_from_a_file(self, name, tmp_path):
        text, expected, _ = MULTI_ERROR_TEXTS[name]
        path = tmp_path / "t.trace"
        path.write_text(text)
        with pytest.raises(TraceFormatError) as exc:
            load_trace(path)
        assert (str(exc.value), exc.value.line_number) == expected[:2]

    @pytest.mark.parametrize("name", sorted(MULTI_ERROR_EVENTS))
    @pytest.mark.parametrize("validate", [True, False])
    def test_trace(self, name, validate):
        events, on, off = MULTI_ERROR_EVENTS[name]
        expected = on if validate else off
        if expected is None:
            Trace(events, validate=validate)
            return
        with pytest.raises(MalformedTraceError) as exc:
            Trace(events, validate=validate)
        assert (str(exc.value), exc.value.event_index) == expected


PARSED_TEXT = """\
# every operation, with and without locations
T1 begin
T1 wr x    Loader.load():42
T1 acq m
T1 rd x
T1 rel m   Cache.get():17  with spaces
T1 fork T2
T2 begin  Main.run():1
T2 vwr v
t2 vrd v  V.f():3
2 end
T1 join T2
T1 wr Tx
worker rd x
T1 end  two words
"""


class TestParsedEvents:
    """The parser's events behave exactly like ``Event(...)``."""

    def test_equal_hash_equal_frozen_and_picklable(self):
        parsed = loads_trace(PARSED_TEXT).events
        assert len(parsed) == 14
        for e in parsed:
            built = Event(e.eid, e.tid, e.kind, e.target, e.loc)
            assert type(e) is Event
            assert e == built and hash(e) == hash(built)
            assert (e.loc, repr(e)) == (built.loc, repr(built))
            assert vars(e) == vars(built)
            with pytest.raises(dataclasses.FrozenInstanceError):
                e.eid = 99
            copy = pickle.loads(pickle.dumps(e))
            assert copy == e and copy.loc == e.loc and hash(copy) == hash(e)

    def test_fields(self):
        parsed = loads_trace(PARSED_TEXT).events
        assert [(e.tid, e.kind.value, e.target, e.loc) for e in parsed] == [
            (1, "begin", None, None),
            (1, "wr", "x", "Loader.load():42"),
            (1, "acq", "m", None),
            (1, "rd", "x", None),
            (1, "rel", "m", "Cache.get():17  with spaces"),
            (1, "fork", 2, None),
            (2, "begin", None, "Main.run():1"),
            (2, "vwr", "v", None),
            (2, "vrd", "v", "V.f():3"),
            (2, "end", None, None),
            (1, "join", 2, None),
            (1, "wr", "Tx", None),
            ("worker", "rd", "x", None),
            (1, "end", None, "two words"),
        ]

    def test_renumbered_and_unpacked_events_too(self):
        from repro.traces.packed import pack
        trace = loads_trace(PARSED_TEXT)
        for other in (Trace.from_events(trace.events),
                      pack(trace).unpack()):
            for e, o in zip(trace.events, other.events):
                assert o == e and hash(o) == hash(e) and o.loc == e.loc
                assert vars(o) == vars(e)
