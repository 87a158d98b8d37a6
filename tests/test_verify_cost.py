"""Cost and independence guards for the witness checker.

* **O(|witness|).** The first check of a trace builds its index in one
  pass over the events; every later check of that trace — accepted or
  rejected — must make zero passes over it. Passes are counted by
  wrapping ``Trace.__iter__``, ``Trace.events_of`` and the other
  whole-trace helpers, and by swapping ``trace.events`` for a list that
  counts iterations and slices.
  A cut witness is checked from the cut alone: zero passes too.
* **Independence.** The checker is a certificate check that shares no
  code with the constructor: neither ``repro.vindicate.verify`` nor the
  witness type it reads (``repro.core.witness``) may import
  ``repro.vindicate.construct``, ``repro.vindicate.add_constraints`` or
  anything under ``repro.graph`` (an AST lint, like ``test_lint.py``).
* **Observability.** Every ``vindicate.check_witness`` span carries the
  witness length as ``events``; the one check that builds a trace's
  index opens a ``vindicate.check_witness.index`` child span. The
  counters ``vindicate.witness.cut`` and ``vindicate.witness.listed``
  count the checks by form.
"""

import ast
import pathlib

import pytest

from repro import obs
from repro.core.exceptions import MalformedReorderingError
from repro.core.trace import Trace
from repro.core.witness import CutWitness
from repro.runtime import execute
from repro.runtime.workloads import WORKLOADS
from repro.vindicate.verify import check_witness
from repro.vindicate.vindicator import Verdict, Vindicator

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
VERIFY_SOURCE = SRC / "vindicate" / "verify.py"
WITNESS_SOURCE = SRC / "core" / "witness.py"
FORBIDDEN_IMPORTS = ("repro.vindicate.construct",
                     "repro.vindicate.add_constraints", "repro.graph")
#: Trace methods that walk the whole trace.
TRACE_SCANS = ("__iter__", "events_of", "accesses", "variables", "locks",
               "conflicting_pairs")


class _CountingEvents(list):
    """``trace.events`` stand-in that counts full iterations and slices."""

    def __init__(self, events, counter):
        super().__init__(events)
        self.counter = counter

    def __iter__(self):
        self.counter.passes += 1
        return super().__iter__()

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.counter.passes += 1
        return super().__getitem__(key)


class _PassCounter:
    def __init__(self, monkeypatch, trace):
        self.passes = 0
        monkeypatch.setattr(trace, "events",
                            _CountingEvents(trace.events, self))
        for name in TRACE_SCANS:
            monkeypatch.setattr(Trace, name, self._counted(getattr(Trace, name)))

    def _counted(self, method):
        def counted(*args, **kwargs):
            self.passes += 1
            return method(*args, **kwargs)
        return counted


@pytest.fixture(scope="module")
def xalan_witnesses():
    trace = execute(WORKLOADS["xalan"](scale=1), seed=3)
    report = Vindicator(check_witnesses=False).run(trace)
    witnessed = [(v.witness.events(), v.race.first, v.race.second)
                 for v in report.vindications if v.witness is not None]
    assert witnessed
    return trace, witnessed


@pytest.fixture(scope="module")
def xalan_cuts():
    trace = execute(WORKLOADS["xalan"](scale=1), seed=3)
    report = Vindicator(check_witnesses=False).run(trace)
    cuts = [v.witness for v in report.vindications
            if isinstance(v.witness, CutWitness)]
    assert cuts
    return trace, cuts


def _rejected_cuts(trace, witness):
    """Cut checks each rule rejects: EVENTS (the first racing event
    inside the cut), PO (the first racing event's thread one short) and
    EVENTS (racing pair named in reverse)."""
    cut, first, second = list(witness.cut), witness.first, witness.second
    t = trace.threads.index(first.tid)
    inside = cut[:t] + [cut[t] + 1] + cut[t + 1:]
    yield CutWitness(trace, inside, first, second), first, second
    if cut[t]:
        short = cut[:t] + [cut[t] - 1] + cut[t + 1:]
        yield CutWitness(trace, short, first, second), first, second
    yield CutWitness(trace, cut, first, second), second, first


def _rejected_checks(witness, first, second):
    """Checks each rule rejects: PO (witness reversed), CA swapped (racing
    pair flipped), CA missing (first racing event dropped), EVENTS
    (duplicate event) and EVENTS (racing pair named in reverse)."""
    yield list(reversed(witness)), first, second
    yield witness[:-2] + [witness[-1], witness[-2]], first, second
    yield witness[:-2] + witness[-1:], first, second
    yield witness + witness[:1], first, second
    yield witness, second, first


class TestNoPassesOverTheTrace:
    def test_first_check_indexes_once_later_checks_never_scan(
            self, monkeypatch, xalan_witnesses):
        trace, witnessed = xalan_witnesses
        fresh = Trace(list(trace))
        counter = _PassCounter(monkeypatch, fresh)
        witness, first, second = witnessed[0]
        check_witness(fresh, witness, first, second)
        assert counter.passes == 1, "the first check builds the index"
        counter.passes = 0
        rules = set()
        for witness, first, second in witnessed:
            check_witness(fresh, witness, first, second)
            for args in _rejected_checks(witness, first, second):
                with pytest.raises(MalformedReorderingError) as err:
                    check_witness(fresh, *args)
                rules.add(err.value.rule)
        assert counter.passes == 0
        assert rules == {"PO", "CA", "EVENTS"}

    def test_cut_checks_never_scan(self, monkeypatch, xalan_cuts):
        trace, cuts = xalan_cuts
        fresh = Trace(list(trace))
        counter = _PassCounter(monkeypatch, fresh)
        witness = cuts[0]
        check_witness(fresh, CutWitness(fresh, witness.cut, witness.first,
                                        witness.second),
                      witness.first, witness.second)
        assert counter.passes == 1, "the first check builds the index"
        counter.passes = 0
        rules = set()
        for witness in cuts:
            check_witness(fresh, CutWitness(fresh, witness.cut, witness.first,
                                            witness.second),
                          witness.first, witness.second)
            for args in _rejected_cuts(fresh, witness):
                with pytest.raises(MalformedReorderingError) as err:
                    check_witness(fresh, *args)
                rules.add(err.value.rule)
        assert counter.passes == 0
        assert rules == {"PO", "EVENTS"}


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                package = "repro.vindicate".rsplit(".", node.level - 1)[0]
                base = f"{package}.{base}" if base else package
            yield base
            for alias in node.names:
                yield f"{base}.{alias.name}"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "__import__"):
            yield "__import__"


class TestIndependence:
    def test_checker_imports_nothing_from_the_constructor(self):
        for source in (VERIFY_SOURCE, WITNESS_SOURCE):
            tree = ast.parse(source.read_text(encoding="utf-8"))
            modules = set(_imported_modules(tree))
            assert "repro.core.trace" in modules  # the walk sees imports
            bad = sorted(m for m in modules
                         if m in ("importlib", "__import__")
                         or any(m == f or m.startswith(f + ".")
                                for f in FORBIDDEN_IMPORTS))
            assert not bad, f"{source.name} must stay independent: imports {bad}"


def _walk(spans):
    for span in spans:
        yield span
        yield from _walk(span.children)


class TestObservability:
    def test_check_spans_carry_witness_length_and_one_index_span(self):
        trace = execute(WORKLOADS["xalan"](scale=1), seed=3)
        try:
            obs.enable(sample_memory=False)
            report = Vindicator().run(trace)
            spans = list(_walk(obs.tracer().roots))
        finally:
            obs.disable()
        checks = [s for s in spans if s.name == "vindicate.check_witness"]
        lengths = [len(v.witness) for v in report.vindications
                   if v.witness is not None]
        assert lengths
        assert sorted(s.counts["events"] for s in checks) == sorted(lengths)
        indexes = [s for s in spans
                   if s.name == "vindicate.check_witness.index"]
        assert len(indexes) == 1
        assert indexes[0].counts["events"] == len(trace)
        assert indexes[0] in checks[0].children

    def test_form_counters_count_every_check(self):
        trace = execute(WORKLOADS["xalan"](scale=1), seed=3)
        try:
            obs.enable(sample_memory=False)
            report = Vindicator().run(trace)
            counters = obs.metrics().snapshot()["counters"]
        finally:
            obs.disable()
        races = [v for v in report.vindications if v.verdict is Verdict.RACE]
        assert races
        # On xalan every witness is the observed order restricted to a
        # cut, the missing-release retry's included.
        assert all(isinstance(v.witness, CutWitness) for v in races)
        assert counters["vindicate.witness.cut"] == len(races)
        assert "vindicate.witness.listed" not in counters
