"""Process parallelism is a throughput knob, never a semantic change.

The pipeline splits work across processes in one place: the serve
daemon, where ``serve --jobs N`` routes each session to one of N forked
shard workers by a stable hash of its name. A session streamed through
a forked :class:`~repro.serve.shard.ProcessShard` must finish with the
``vindicator.analyze/1`` document that a single in-process
``Vindicator.run`` produces for the same events: same races,
classifications, verdicts, witnesses and counters (``reach_*``
included). Only the wall-clock fields and the trace's provenance (a
``serve`` session rather than the scheduler run) are set aside.
"""

import itertools
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cli import main
from repro.serve.server import ServeDaemon
from repro.serve.shard import (InlineShard, ProcessShard, make_shards,
                               shard_of)
from repro.runtime import execute
from repro.runtime.workloads import WORKLOADS
from repro.traces.gen import GeneratorConfig, random_trace
from repro.traces.io import format_event
from repro.traces.litmus import ALL as LITMUS
from repro.vindicate.vindicator import Vindicator

from documents import blank_timings

#: Events per ``events`` request: small enough that every trace but the
#: tiniest arrives in several frames.
CHUNK = 97

_session_names = (f"session-{i}" for i in itertools.count())


def normalize(doc):
    """Blank the wall-clock fields and the trace's provenance; the rest
    of the document must be bit-identical."""
    doc = blank_timings(doc)
    doc["trace"]["provenance"] = None
    return doc


@pytest.fixture(scope="module")
def shard(tmp_path_factory):
    """One forked shard worker for the module; every test opens its own
    sessions on it."""
    worker = ProcessShard(0, str(tmp_path_factory.mktemp("checkpoints")))
    yield worker
    worker.close()


def request(shard, **doc):
    response = shard.request(doc)
    assert response["ok"], response
    return response


def shard_doc(shard, trace, **config):
    """Stream ``trace`` into a new session on ``shard`` and finish it."""
    name = next(_session_names)
    request(shard, op="hello", session=name, config=config)
    lines = [format_event(event) for event in trace]
    for start in range(0, len(lines), CHUNK):
        request(shard, op="events", session=name,
                lines=lines[start:start + CHUNK])
    return request(shard, op="finish", session=name)["report"]


def assert_shard_identical(shard, trace, **config):
    """The shard's document equals the in-process pipeline's."""
    served = shard_doc(shard, trace, **config)
    local = Vindicator(
        vindicate_all=config.get("vindicate_all", False)).run(
            trace).to_document()
    assert served["parallel"] == {"jobs": 1}
    assert normalize(served) == normalize(local)
    return served


class TestPartition:
    """``shard_of``: the session -> shard routing."""

    def test_empty(self):
        for jobs in range(1, 9):
            assert shard_of("", jobs) in range(jobs)
        assert {shard_of(f"s{i}", 1) for i in range(50)} == {0}

    def test_covers_range_exactly(self):
        for jobs in (1, 2, 3, 8):
            routed = {shard_of(f"session-{i}", jobs) for i in range(200)}
            assert routed == set(range(jobs))

    def test_chunks_never_empty(self):
        for jobs in (2, 7):
            counts = [0] * jobs
            for i in range(16 * jobs):
                counts[shard_of(f"client-{i}", jobs)] += 1
            assert min(counts) > 0

    def test_deterministic_and_scheduling_independent(self):
        # A spawned interpreter has its own string-hash seed: routing
        # must not depend on it, or a restarted daemon would move
        # sessions away from their checkpoints' shard.
        import multiprocessing

        args = [(f"session-{i}", 5) for i in range(40)]
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            remote = pool.starmap(shard_of, args)
        assert remote == [shard_of(*a) for a in args]
        assert remote == [shard_of(*a) for a in args]

    def test_chunk_count_bounds(self, tmp_path):
        for jobs in range(1, 17):
            assert max(shard_of(f"n{i}", jobs) for i in range(100)) < jobs
        [inline] = make_shards(1, str(tmp_path))
        assert isinstance(inline, InlineShard)

    def test_near_uniform_sizes(self):
        counts = [0] * 4
        for i in range(4000):
            counts[shard_of(f"session-{i}", 4)] += 1
        assert max(counts) - min(counts) <= 200


class TestLitmusDifferential:
    @pytest.mark.parametrize("name", sorted(LITMUS))
    def test_bit_identical(self, shard, name):
        assert_shard_identical(shard, LITMUS[name](), gc_window=0,
                               vindicate_all=True)


class TestWorkloadDifferential:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_bit_identical(self, shard, name):
        trace = execute(WORKLOADS[name](scale=0.25), seed=7)
        assert_shard_identical(shard, trace, vindicate_all=True)

    def test_with_sanitize(self, shard):
        # Sessions run no static pre-pass; the sanitized in-process run
        # must still reach the same races and verdicts.
        trace = execute(WORKLOADS["xalan"](scale=0.4), seed=3)
        served = normalize(shard_doc(shard, trace))
        local = normalize(Vindicator(sanitize=True)
                          .run(trace).to_document())
        assert local["lockset"] is not None
        for label in ("hb", "wcp", "dc"):
            assert served["analyses"][label]["races"] == \
                local["analyses"][label]["races"]
        assert served["race_classes"] == local["race_classes"]
        assert served["vindications"] == local["vindications"]

    def test_dc_only_vindication_subset(self, shard):
        # The default session config (not vindicate_all) exercises the
        # DC-only selection.
        trace = execute(WORKLOADS["xalan"](scale=0.4), seed=3)
        served = assert_shard_identical(shard, trace)
        assert served["vindications"]

    def test_race_report_objects_match(self, shard):
        trace = execute(WORKLOADS["avrora"](scale=0.4), seed=0)
        local = Vindicator(vindicate_all=True).run(trace)
        served = shard_doc(shard, trace, vindicate_all=True)
        for label in ("hb", "wcp", "dc"):
            races = served["analyses"][label]["races"]
            assert [(r["first"]["eid"], r["second"]["eid"], r["race_class"])
                    for r in races] == \
                   [(r.first.eid, r.second.eid,
                     r.race_class and r.race_class.value)
                    for r in getattr(local, label).races]
        assert [(v["race"]["first"]["eid"], v["race"]["second"]["eid"],
                 v["verdict"], v["attempts"], v["ls_constraints"])
                for v in served["vindications"]] == \
               [(v.race.first.eid, v.race.second.eid, v.verdict.value,
                 v.attempts, v.ls_constraints)
                for v in local.vindications]
        assert [v["witness_events"] for v in served["vindications"]] == \
               [None if v.witness is None else len(v.witness)
                for v in local.vindications]


class TestObsDifferential:
    def test_identical_with_metrics_on(self, tmp_path):
        trace = execute(WORKLOADS["avrora"](scale=0.3), seed=0)
        try:
            obs.enable()
            worker = ProcessShard(0, str(tmp_path))
            try:
                assert_shard_identical(worker, trace, vindicate_all=True)
            finally:
                worker.close()
        finally:
            obs.disable()

    def test_counters_account_for_worker_work(self, tmp_path):
        # An in-process shard runs the same dispatch as a forked one and
        # publishes into this process's registry.
        trace = execute(WORKLOADS["avrora"](scale=0.3), seed=0)
        try:
            obs.enable()
            served = shard_doc(InlineShard(0, str(tmp_path)), trace,
                               vindicate_all=True)
            counters = obs.metrics().snapshot()["counters"]
        finally:
            obs.disable()
        # Sessions run the epoch detectors, published under "*_epoch".
        assert counters["analysis.dc_epoch.events"] == len(trace)
        assert counters["vindicate.races_checked"] == \
            len(served["vindications"])

    def test_session_spans_nest_under_pipeline(self, tmp_path):
        trace = execute(WORKLOADS["avrora"](scale=0.3), seed=0)
        try:
            obs.enable()
            with obs.span("pipeline"):
                shard_doc(InlineShard(0, str(tmp_path)), trace,
                          vindicate_all=True)
            roots = obs.tracer().to_dicts()
        finally:
            obs.disable()

        def names(node):
            yield node["name"]
            for child in node.get("children", []):
                yield from names(child)

        [pipeline] = [root for root in roots if root["name"] == "pipeline"]
        assert "vindicate.race" in list(names(pipeline))


class TestCLI:
    def test_jobs_flag_bit_identical_documents(self, shard, capsys):
        assert main(["workload", "avrora", "--scale", "0.25",
                     "--vindicate-all", "--json"]) == 0
        local = json.loads(capsys.readouterr().out)
        assert local["parallel"] == {"jobs": 1}
        trace = execute(WORKLOADS["avrora"](scale=0.25), seed=0)
        served = shard_doc(shard, trace, vindicate_all=True)
        assert normalize(served) == normalize(local)

    def test_jobs_rejects_zero(self, tmp_path, capsys):
        with pytest.raises(ValueError):
            ServeDaemon(unix_socket=str(tmp_path / "a.sock"), jobs=0)
        assert main(["serve", "--socket", str(tmp_path / "b.sock"),
                     "--jobs", "0"]) == 2
        assert "jobs must be >= 1" in capsys.readouterr().err


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 10_000),
       config=st.builds(GeneratorConfig,
                        threads=st.integers(2, 4),
                        events=st.integers(8, 30),
                        variables=st.integers(1, 3),
                        locks=st.integers(1, 2),
                        use_fork_join=st.booleans()))
def test_random_traces_bit_identical(shard, seed, config):
    trace = random_trace(seed, config)
    assert_shard_identical(shard, trace, gc_window=0, vindicate_all=True)
