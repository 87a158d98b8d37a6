"""Columns are the trace: one tokenizer, one indexing step, three callers.

* **Differential.** For the litmus suite, every workload analog at
  scale 2 (seeds 0 and 5), both e2ebench inputs (seed 40) and
  hypothesis-generated traces with comments and blank lines
  interleaved, the file-loaded ``Trace``, ``Trace(events)`` and a fully
  streamed ``StreamingTrace`` have equal columns, tables, lock matching
  and ``threads``.
* **Positional.** ``list(trace.events)`` equals the per-line parser's
  events, locations included, with begin and end told apart; a
  structural error names the line its event sits on.
* **Errors.** Every ``TraceFormatError`` of the loader carries the
  message and line number the parser gave before it wrote the columns
  itself (pinned from that tree).
* **No events kept.** After a pipeline run over a loaded trace, and
  after a serve session's ``finish``, no ``Event`` is reachable from the
  report or the session.
"""

import gc
import types

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.events import CODE_BEGIN, CODE_END, Event, EventKind
from repro.core.exceptions import TraceFormatError
from repro.core.trace import EventView, Trace
from repro.runtime import execute
from repro.runtime.workloads import WORKLOADS
from repro.serve.session import SessionAnalyzer, SessionConfig
from repro.serve.streaming import StreamingTrace
from repro.traces.gen import GeneratorConfig, random_trace
from repro.traces.io import dumps_trace, loads_trace, parse_event_line
from repro.traces.litmus import ALL as LITMUS
from repro.vindicate.vindicator import Vindicator

#: The e2ebench inputs at seed 40: (analog, scale, schedule seed).
E2EBENCH_INPUTS = {"cold-analysis": ("avrora", 16, 40),
                   "cold-vindicate": ("xalan", 8, 1611)}


def parsed_events(text):
    """:func:`parse_event_line` over ``text``'s lines, numbered."""
    events = []
    for number, line in enumerate(text.splitlines(), start=1):
        event = parse_event_line(line, eid=len(events), line_number=number)
        if event is not None:
            events.append(event)
    return events


def event_lines(text):
    """The 1-based line number of each event line of ``text``."""
    return [number for number, line in enumerate(text.splitlines(), start=1)
            if line.strip() and not line.strip().startswith("#")]


def state(trace):
    """Everything the indexing step builds."""
    return {
        "codes": bytes(trace.codes), "tix": trace.tix, "tgt": trace.tgt,
        "loc": trace.loc, "held": trace.held, "local_time": trace.local_time,
        "enclosing": trace.enclosing_acquires,
        "thread_eids": trace.thread_eids, "tid_names": trace.tid_names,
        "tid_index": trace.tid_index, "var_names": trace.var_names,
        "lock_names": trace.lock_names, "vol_names": trace.vol_names,
        "marker_targets": trace.marker_targets,
        "match_rel": trace._match_rel, "match_acq": trace._match_acq,
        "threads": trace.threads,
    }


def assert_three_callers_agree(text):
    loaded = loads_trace(text)
    events = parsed_events(text)
    built = Trace(events)
    stream = StreamingTrace()
    for event in events:
        stream.append(event)
    assert state(loaded) == state(built) == state(stream)
    for trace in (loaded, built, stream):
        listed = list(trace.events)
        assert listed == events
        assert [e.loc for e in listed] == [e.loc for e in events]
        assert [e.kind for e in listed] == [e.kind for e in events]
        assert [trace.events[e.eid] for e in events] == events
    kinds = [e.kind for e in events]
    assert [eid for eid, code in enumerate(loaded.codes)
            if code == CODE_BEGIN] == [
        i for i, kind in enumerate(kinds) if kind is EventKind.BEGIN]
    assert [eid for eid, code in enumerate(loaded.codes)
            if code == CODE_END] == [
        i for i, kind in enumerate(kinds) if kind is EventKind.END]


class TestThreeCallers:
    @pytest.mark.parametrize("name", sorted(LITMUS))
    def test_litmus(self, name):
        assert_three_callers_agree(dumps_trace(LITMUS[name]()))

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_workloads_at_scale_2(self, workload, seed):
        trace = execute(WORKLOADS[workload](scale=2), seed=seed)
        assert_three_callers_agree(dumps_trace(trace))

    @pytest.mark.parametrize("name", sorted(E2EBENCH_INPUTS))
    def test_e2ebench_inputs(self, name):
        analog, scale, seed = E2EBENCH_INPUTS[name]
        trace = execute(WORKLOADS[analog](scale=scale), seed=seed)
        assert_three_callers_agree(dumps_trace(trace))

    def test_begin_and_end_with_locations(self):
        text = ("T1 begin  Main.run():1\nT1 fork T2\nT2 begin\n"
                "T2 wr x  A.f():2\nT2 end  two words\nT1 join T2\n"
                "T1 end\n")
        assert_three_callers_agree(text)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000), data=st.data())
    def test_random_traces_with_comments_and_blanks(self, seed, data):
        trace = random_trace(seed, GeneratorConfig(
            threads=4, events=40, volatiles=1, use_fork_join=True))
        lines = dumps_trace(trace).splitlines()
        fillers = st.sampled_from(["", "   ", "# note", "\t", "#"])
        text = ""
        for line in lines:
            for filler in data.draw(st.lists(fillers, max_size=2)):
                text += filler + "\n"
            text += line + "\n"
        assert_three_callers_agree(text)


class TestLineNumbers:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10_000), data=st.data())
    def test_structural_errors_name_their_event_line(self, seed, data):
        trace = random_trace(seed, GeneratorConfig(threads=3, events=25,
                                                   locks=2))
        lines = dumps_trace(trace).splitlines()
        # A release of a lock nobody holds, somewhere in the trace.
        at = data.draw(st.integers(1, len(lines)))
        lines.insert(at, "T9 rel nobody")
        fillers = st.sampled_from(["", "# c", "  "])
        text = ""
        for line in lines:
            for filler in data.draw(st.lists(fillers, max_size=2)):
                text += filler + "\n"
            text += line + "\n"
        with pytest.raises(TraceFormatError) as excinfo:
            loads_trace(text)
        event_index = excinfo.value.__cause__.event_index
        assert excinfo.value.line_number == event_lines(text)[event_index]
        assert text.splitlines()[excinfo.value.line_number - 1].strip() \
            == "T9 rel nobody"


#: ``(text, validate, (message, line number) or None)``, as the loader
#: reported them before it wrote the columns itself.
LOADER_ERRORS = [
    ('T1 frobnicate x\n', True,
     ("line 1: unknown operation 'frobnicate'", 1)),
    ('T1 frobnicate x\n', False,
     ("line 1: unknown operation 'frobnicate'", 1)),
    ('# c\n\nT1 wr x\nT1\n', True,
     ("line 4: expected '<tid> <op> [target] [loc]'", 4)),
    ('# c\n\nT1 wr x\nT1\n', False,
     ("line 4: expected '<tid> <op> [target] [loc]'", 4)),
    ('T1 wr\n', True,
     ("line 1: operation 'wr' needs a target", 1)),
    ('T1 wr\n', False,
     ("line 1: operation 'wr' needs a target", 1)),
    ('T1 rel m\n# c\nT1 bogus x\n', True,
     ("line 3: unknown operation 'bogus'", 3)),
    ('T1 rel m\n# c\nT1 bogus x\n', False,
     ("line 3: unknown operation 'bogus'", 3)),
    ('# a\n\n# b\nT1 wr x\n\nT2 acq m\nT2 acq m\n', True,
     ("line 7: structurally invalid trace: acq(m)@T2#2: lock 'm' already held by thread 2 (locks are non-reentrant)", 7)),
    ('# a\n\n# b\nT1 wr x\n\nT2 acq m\nT2 acq m\n', False,
     None),
    ('T1 acq m\n\n\nT1 rel n\n', True,
     ("line 4: structurally invalid trace: rel(n)@T1#1: releases lock 'n' not held by thread 1", 4)),
    ('T1 acq m\n\n\nT1 rel n\n', False,
     ("line 4: structurally invalid trace: rel(n)@T1#1: releases lock 'n' not held by thread 1", 4)),
    ('T1 begin\nT1 wr x\n   \nT1 begin\n', True,
     ("line 4: structurally invalid trace: begin()@T1#2: begin is not thread's first event", 4)),
    ('T1 begin\nT1 wr x\n   \nT1 begin\n', False,
     None),
    ('T1 wr x\nT1 end\n# tail\nT1 rd x\n', True,
     ("line 2: structurally invalid trace: end()@T1#1: end is not thread's last event", 2)),
    ('T1 wr x\nT1 end\n# tail\nT1 rd x\n', False,
     None),
    ('\n\nT1 fork T1\n', True,
     ('line 3: structurally invalid trace: fork(1)@T1#0: thread forks itself', 3)),
    ('\n\nT1 fork T1\n', False,
     None),
    ('T1 acq m\nT2 rel m\nT1 frobnicate\n', True,
     ("line 3: unknown operation 'frobnicate'", 3)),
    ('T1 acq m\nT2 rel m\nT1 frobnicate\n', False,
     ("line 3: unknown operation 'frobnicate'", 3)),
    ('T1 fork T1\nT2 wr x\n# c\nT3 bad op x\n', True,
     ("line 4: unknown operation 'bad'", 4)),
    ('T1 fork T1\nT2 wr x\n# c\nT3 bad op x\n', False,
     ("line 4: unknown operation 'bad'", 4)),
    ('T1 acq m\nT1 acq n\nT1 rel m\n\n# end\n', True,
     ("line 3: structurally invalid trace: rel(m)@T1#2: releases lock 'm' out of nesting order", 3)),
    ('T1 acq m\nT1 acq n\nT1 rel m\n\n# end\n', False,
     None),
    ('T1 wr x\n\n\nT1 join T2\nT2 wr x\n\n', True,
     ('line 5: structurally invalid trace: thread 2 executes event #2 after its join #1', 5)),
    ('T1 wr x\n\n\nT1 join T2\nT2 wr x\n\n', False,
     None),
    ('# only\n\n', True,
     None),
    ('# only\n\n', False,
     None),
    ('T1 acq m\nT1 rel m\nT2 rel m\n   \nT1\n', True,
     ("line 5: expected '<tid> <op> [target] [loc]'", 5)),
    ('T1 acq m\nT1 rel m\nT2 rel m\n   \nT1\n', False,
     ("line 5: expected '<tid> <op> [target] [loc]'", 5)),
    ('T1 wr x Loader.load():42\n# c\nT2 acq m\n\nT2 acq m  A.b():3\nT2 rel m\n', True,
     ("line 5: structurally invalid trace: acq(m)@T2#2: lock 'm' already held by thread 2 (locks are non-reentrant)", 5)),
    ('T1 wr x Loader.load():42\n# c\nT2 acq m\n\nT2 acq m  A.b():3\nT2 rel m\n', False,
     None),
]


@pytest.mark.parametrize("text,validate,expected", LOADER_ERRORS)
def test_loader_errors_are_unchanged(text, validate, expected):
    if expected is None:
        loads_trace(text, validate=validate)
        return
    with pytest.raises(TraceFormatError) as excinfo:
        loads_trace(text, validate=validate)
    assert (str(excinfo.value), excinfo.value.line_number) == expected


def reachable_events(root):
    """The :class:`Event` objects reachable from ``root`` through object
    references (modules, classes and functions are not followed)."""
    seen = {id(root)}
    todo = [root]
    found = 0
    while todo:
        obj = todo.pop()
        if isinstance(obj, Event):
            found += 1
        for ref in gc.get_referents(obj):
            if id(ref) in seen or isinstance(ref, (
                    type, types.ModuleType, types.FunctionType,
                    types.BuiltinFunctionType)):
                continue
            seen.add(id(ref))
            todo.append(ref)
    return found


class TestNoEventsKept:
    def test_a_loaded_run_holds_none(self):
        trace = loads_trace(dumps_trace(
            execute(WORKLOADS["xalan"](scale=2), seed=3)))
        report = Vindicator(vindicate_all=True).run(trace)
        report.to_document()
        assert report.dc.races and report.vindications
        assert isinstance(trace.events, EventView)
        # Only a witness holds events (its racing pair, or its list).
        for v in report.vindications:
            v.witness = None
        assert reachable_events(report) == 0

    def test_a_session_holds_none_after_finish(self):
        trace = execute(WORKLOADS["avrora"](scale=16), seed=40)
        lines = dumps_trace(trace).splitlines()
        analyzer = SessionAnalyzer(SessionConfig(name="columns"))
        for i in range(0, len(lines), 150):
            analyzer.feed_lines(lines[i:i + 150])
        analyzer.finish()
        assert len(analyzer.trace) == len(trace)
        assert reachable_events(analyzer) == 0
