"""Differential tests: compiled kernel backend vs the pure-Python reference.

The ``py_*`` functions in :mod:`repro.core.kernels` *define* the
semantics of the kernel layer; :mod:`repro.core._kernels` re-implements
them natively and must be bit-identical — same mutations, same return
values, same iteration (and therefore edge/race insertion) order. Two
layers of checking:

* **Kernel-op parity** — hypothesis drives each dispatched kernel with
  randomized clock/table states and compares the compiled function
  against its reference side by side (including the in-place mutations
  both perform).
* **End-to-end bit-identity** — the epoch detectors (whose per-access
  hot path is the *fused* ``access_wcp`` / ``access_dc`` kernels under
  the compiled backend, and the open-coded ``_on_access`` under the
  python one) and the full :class:`~repro.vindicate.vindicator.Vindicator`
  pipeline must produce identical races, counters, ``racing_at`` sets,
  DC edge lists, and ``analyze/1`` documents on litmus tests and
  workload traces under either backend — modulo the ``kernels``
  provenance stanza itself, which is exactly what must differ.

The whole module skips cleanly when the extension is not built (the
default pure-Python checkout): there is nothing to differentiate.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.variants import VARIANTS
from repro.core import kernels
from repro.core.trace import TraceBuilder
from repro.analysis.smarttrack import EpochDCDetector, EpochWCPDetector
from repro.runtime import execute
from repro.runtime.workloads import WORKLOADS
from repro.traces.gen import GeneratorConfig, random_trace
from repro.traces.litmus import ALL as LITMUS
from repro.vindicate.vindicator import Vindicator

pytestmark = pytest.mark.skipif(
    not kernels.compiled_available(),
    reason="repro.core._kernels extension not built (pure-Python checkout)")

_c = kernels._compiled_mod

SETTINGS = settings(max_examples=80, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

times = st.integers(0, 40)


@pytest.fixture(autouse=True)
def restore_backend():
    """Every test leaves the process-global backend as it found it."""
    before = kernels.active_backend()
    yield
    kernels.set_backend(before)


# ----------------------------------------------------------------------
# Kernel-op parity (randomized clock sequences)
# ----------------------------------------------------------------------
class TestKernelOps:
    @SETTINGS
    @given(data=st.data())
    def test_join_into_list(self, data):
        dst = data.draw(st.lists(times, min_size=1, max_size=8))
        src = data.draw(st.lists(times, max_size=len(dst)))
        d_py, d_c = list(dst), list(dst)
        kernels.py_join_into_list(d_py, src)
        _c.join_into_list(d_c, src)
        assert d_py == d_c

    @SETTINGS
    @given(data=st.data())
    def test_join_into_list_changed(self, data):
        dst = data.draw(st.lists(times, min_size=1, max_size=8))
        src = data.draw(st.lists(times, max_size=len(dst)))
        d_py, d_c = list(dst), list(dst)
        r_py = kernels.py_join_into_list_changed(d_py, src)
        r_c = _c.join_into_list_changed(d_c, src)
        assert (r_py, d_py) == (r_c, d_c)

    @SETTINGS
    @given(big=st.lists(times, max_size=8), small=st.lists(times, max_size=8))
    def test_dominates_list(self, big, small):
        assert (kernels.py_dominates_list(big, small)
                == _c.dominates_list(big, small))

    @SETTINGS
    @given(ops=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 99)),
                        max_size=30))
    def test_record_latest_preserves_recency_order(self, ops):
        t_py, t_c = {}, {}
        for key, value in ops:
            kernels.py_record_latest(t_py, key, value)
            _c.record_latest(t_c, key, value)
        # Same content *and* same iteration order — the scans and the
        # del-then-insert maintenance depend on most-recent-last.
        assert list(t_py.items()) == list(t_c.items())

    @SETTINGS
    @given(tids=st.lists(st.integers(0, 5), min_size=1, max_size=20))
    def test_slot_intern(self, tids):
        s_py = ({}, [], [])
        s_c = ({}, [], [])
        for tid in tids:
            i_py = kernels.py_slot_intern(*s_py, tid)
            i_c = _c.slot_intern(*s_c, tid)
            assert i_py == i_c
        assert s_py == s_c

    @SETTINGS
    @given(data=st.data())
    def test_source_join_into(self, data):
        T = data.draw(st.integers(1, 5))
        entries = data.draw(st.dictionaries(
            st.integers(0, T - 1),
            st.tuples(st.integers(0, 99), times,
                      st.lists(times, min_size=T, max_size=T)),
            max_size=T))
        values = data.draw(st.lists(times, min_size=T, max_size=T))
        skip_ti = data.draw(st.integers(0, T - 1))
        v_py, v_c = list(values), list(values)
        r_py = kernels.py_source_join_into(entries, v_py, skip_ti)
        r_c = _c.source_join_into(entries, v_c, skip_ti)
        assert (r_py, v_py) == (r_c, v_c)

    @SETTINGS
    @given(data=st.data())
    def test_rule_b_fixpoint(self, data):
        T = data.draw(st.integers(1, 4))
        snap = st.one_of(st.none(), st.lists(times, min_size=T, max_size=T))
        records = data.draw(st.dictionaries(
            st.integers(0, T - 1),
            st.lists(st.tuples(times, st.integers(0, 99), times, snap)
                     .map(list), max_size=4),
            max_size=T))
        values = data.draw(st.lists(times, min_size=T, max_size=T))
        cursors_py, cursors_c = {}, {}
        v_py, v_c = list(values), list(values)
        r_py = kernels.py_rule_b_fixpoint(records, cursors_py, v_py)
        r_c = _c.rule_b_fixpoint(records, cursors_c, v_c)
        assert (r_py, v_py, cursors_py) == (r_c, v_c, cursors_c)

    @SETTINGS
    @given(data=st.data())
    def test_gated_scan(self, data):
        T = data.draw(st.integers(1, 5))
        access_map = st.dictionaries(
            st.integers(0, T - 1),
            st.tuples(times, st.integers(0, 999),
                      st.one_of(st.none(),
                                st.lists(times, min_size=T, max_size=T))),
            max_size=T)
        writes = data.draw(st.one_of(st.none(), access_map))
        reads = data.draw(st.one_of(st.none(), access_map))
        ti = data.draw(st.integers(0, T - 1))
        values = data.draw(st.lists(times, min_size=T, max_size=T))
        use_gates = data.draw(st.booleans())
        we_time, rg_time = data.draw(times), data.draw(times)
        we_ti = data.draw(st.integers(0, T - 1))
        rg_ti = data.draw(st.integers(0, T - 1))
        rg_shared = data.draw(st.booleans())
        r_py = kernels.py_gated_scan(writes, reads, ti, values, use_gates,
                                     we_time, we_ti, rg_time, rg_ti,
                                     rg_shared)
        r_c = _c.gated_scan(writes, reads, ti, values, use_gates,
                            we_time, we_ti, rg_time, rg_ti, rg_shared)
        assert r_py == r_c

    @SETTINGS
    @given(data=st.data())
    def test_scan_racing_sparse(self, data):
        class Ev:
            __slots__ = ("tid", "eid")

            def __init__(self, tid, eid):
                self.tid = tid
                self.eid = eid

        n = data.draw(st.integers(1, 10))
        local_time = data.draw(st.lists(times, min_size=n, max_size=n))
        ev = st.builds(Ev, st.integers(0, 3), st.integers(0, n - 1))
        table = st.dictionaries(st.integers(0, 3),
                                st.tuples(ev, st.integers(0, 99)), max_size=4)
        last_write = data.draw(table)
        last_read = data.draw(st.one_of(st.none(), table))
        tid = data.draw(st.integers(0, 3))
        clock = data.draw(st.dictionaries(st.integers(0, 3), times,
                                          max_size=4))
        clock_get = lambda t: clock.get(t, 0)  # noqa: E731
        r_py = kernels.py_scan_racing_sparse(last_write, last_read, tid,
                                             local_time, clock_get)
        r_c = _c.scan_racing_sparse(last_write, last_read, tid,
                                    local_time, clock_get)
        assert r_py == r_c


# ----------------------------------------------------------------------
# Fused per-access kernels: epoch detectors across backends
# ----------------------------------------------------------------------
configs = st.builds(
    GeneratorConfig,
    threads=st.integers(2, 4),
    events=st.integers(6, 40),
    variables=st.integers(1, 3),
    locks=st.integers(1, 3),
    max_nesting=st.integers(1, 3),
    use_fork_join=st.booleans(),
    volatiles=st.integers(0, 1),
)


def _epoch_results(trace, backend):
    kernels.set_backend(backend)
    out = []
    for det in (EpochWCPDetector(), EpochDCDetector(build_graph=False),
                EpochDCDetector(build_graph=True)):
        report = det.analyze(trace)
        edges = (list(det.graph.edges())
                 if getattr(det, "build_graph", False) else None)
        out.append((
            [(r.first.eid, r.second.eid) for r in report.races],
            dict(report.counters), dict(det.racing_at), edges,
            det.fast_stats(),
        ))
    return out


class TestFusedAccessKernels:
    @SETTINGS
    @given(seed=st.integers(0, 10_000), config=configs)
    def test_epoch_detectors_bit_identical(self, seed, config):
        trace = random_trace(seed, config)
        assert (_epoch_results(trace, "python")
                == _epoch_results(trace, "compiled"))

    @pytest.mark.parametrize("name", sorted(LITMUS))
    def test_litmus_bit_identical(self, name):
        trace = LITMUS[name]()
        assert (_epoch_results(trace, "python")
                == _epoch_results(trace, "compiled"))

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_workloads_bit_identical(self, name):
        trace = execute(WORKLOADS[name](scale=0.3), seed=3)
        assert (_epoch_results(trace, "python")
                == _epoch_results(trace, "compiled"))

    def test_fused_kernel_actually_engages(self):
        # Guard against silently falling back to the open-coded path:
        # on a workload trace the compiled backend must route accesses
        # and sync ops through the fused kernels (visible as bound
        # _c_access / _c_acquire / etc.).
        trace = execute(WORKLOADS["xalan"](scale=0.3), seed=3)
        kernels.set_backend("compiled")
        det = EpochDCDetector(build_graph=False)
        det.begin_trace(trace)
        assert det._c_access is _c.access_dc
        assert det._c_acquire is _c.acquire_dc
        assert det._c_release is _c.release_dc
        assert det._c_fork is _c.fork_dc
        assert det._c_join is _c.join_dc
        det_wcp = EpochWCPDetector()
        det_wcp.begin_trace(trace)
        assert det_wcp._c_access is _c.access_wcp
        assert det_wcp._c_acquire is _c.acquire_wcp
        assert det_wcp._c_release is _c.release_wcp
        assert det_wcp._c_fork is _c.fork_wcp
        assert det_wcp._c_join is _c.join_wcp
        # Since the edge buffer landed, DC+graph is fused too: edges
        # are staged C-side and drained at finish().
        det_graph = EpochDCDetector(build_graph=True)
        det_graph.begin_trace(trace)
        assert det_graph._c_access is _c.access_dc
        assert det_graph._c_release is _c.release_dc
        assert det_graph._ctx[-1] is det_graph._ebuf
        assert det_graph._sctx[16] is det_graph._ebuf



# ----------------------------------------------------------------------
# Adversarial lock churn: the sync-op kernels under hostile schedules
# ----------------------------------------------------------------------
# The random generator above reaches sync ops incidentally; these
# builders construct traces that are *mostly* sync ops, each shaped to
# stress one leg of the fused acquire/release/fork/join kernels: deep
# nesting (lock_h/lock_p maintenance at many levels), release-heavy
# streams (rule-(b) queue churn and cursor fixpoints), fork/join storms
# (pending-fork tables and rule-(a) child edges), and ownership flips
# (the DC exclusive-owner tag's fast/slow boundary). Critical sections
# on one lock are emitted contiguously, so every trace is a valid
# execution by construction.


def _nested_trace(threads, locks, depth, rounds):
    """Each thread repeatedly acquires a rotated stack of distinct
    locks, touches shared state at the innermost level, and unwinds."""
    b = TraceBuilder()
    depth = min(depth, locks)
    for r in range(rounds):
        for t in range(1, threads + 1):
            stack = [f"m{(r + t + i) % locks}" for i in range(depth)]
            for lock in stack:
                b.acq(t, lock)
            b.wr(t, f"x{r % 2}")
            b.rd(t, "y")
            for lock in reversed(stack):
                b.rel(t, lock)
        b.wr(1 + (r % threads), "y")
    return b.build()


def _release_heavy_trace(threads, locks, sections):
    """Many tiny critical sections round-robined across threads and
    locks — the queue-maintenance worst case: every release runs the
    rule-(b) scan over every other thread's history."""
    b = TraceBuilder()
    for i in range(sections):
        t = 1 + (i % threads)
        lock = f"m{i % locks}"
        b.acq(t, lock)
        if i % 3 == 0:
            b.wr(t, f"v{i % 2}")
        b.rel(t, lock)
    b.rd(1, "v0")
    return b.build()


def _fork_join_storm(children, rounds):
    """A root thread forks a wave of children, each doing a small
    critical section plus shared writes, then joins the wave in
    reverse order — pending-fork tables and rule-(a) edges dominate."""
    b = TraceBuilder()
    root = 1
    tid = 2
    for r in range(rounds):
        wave = []
        for _ in range(children):
            child = tid
            tid += 1
            b.fork(root, child)
            wave.append(child)
        for child in wave:
            b.acq(child, "m")
            b.wr(child, "shared")
            b.rel(child, "m")
            b.end(child)
        for child in reversed(wave):
            b.join(root, child)
        b.rd(root, "shared")
    return b.build()


def _ownership_flip_trace(exclusive_runs, flip_every):
    """A lock monopolized by one thread (exclusive-owner fast path) is
    periodically stolen by the other (ownership transfer), flipping the
    DC owner tag between fast and slow release paths."""
    b = TraceBuilder()
    for run in range(exclusive_runs):
        holder = 1 if (run // max(1, flip_every)) % 2 == 0 else 2
        b.acq(holder, "hot")
        b.wr(holder, "guarded")
        b.rel(holder, "hot")
    b.rd(1, "guarded")
    b.rd(2, "guarded")
    return b.build()


class TestAdversarialLockChurn:
    @SETTINGS
    @given(threads=st.integers(1, 3), locks=st.integers(1, 4),
           depth=st.integers(1, 4), rounds=st.integers(1, 5))
    def test_deep_nested_acquires(self, threads, locks, depth, rounds):
        trace = _nested_trace(threads, locks, depth, rounds)
        assert (_epoch_results(trace, "python")
                == _epoch_results(trace, "compiled"))

    @SETTINGS
    @given(threads=st.integers(1, 4), locks=st.integers(1, 3),
           sections=st.integers(1, 40))
    def test_release_heavy_streams(self, threads, locks, sections):
        trace = _release_heavy_trace(threads, locks, sections)
        assert (_epoch_results(trace, "python")
                == _epoch_results(trace, "compiled"))

    @SETTINGS
    @given(children=st.integers(1, 5), rounds=st.integers(1, 4))
    def test_fork_join_storms(self, children, rounds):
        trace = _fork_join_storm(children, rounds)
        assert (_epoch_results(trace, "python")
                == _epoch_results(trace, "compiled"))

    @SETTINGS
    @given(exclusive_runs=st.integers(1, 24), flip_every=st.integers(1, 8))
    def test_ownership_flips(self, exclusive_runs, flip_every):
        trace = _ownership_flip_trace(exclusive_runs, flip_every)
        assert (_epoch_results(trace, "python")
                == _epoch_results(trace, "compiled"))


# ----------------------------------------------------------------------
# End-to-end: Vindicator documents across backends
# ----------------------------------------------------------------------
def _normalize(doc):
    """Strip wall-clock fields and the backend stanza itself — the one
    field documented to differ between the two runs."""
    doc = json.loads(json.dumps(doc))
    doc["timing"] = None
    doc["metrics"] = None
    assert doc["kernels"]["backend"] in ("python", "compiled")
    doc["kernels"] = None
    for vindication in doc.get("vindications", []):
        vindication["elapsed_seconds"] = None
    return doc


def _document(trace, backend, **kwargs):
    kernels.set_backend(backend)
    return _normalize(Vindicator(**kwargs).run(trace).to_document())


@pytest.mark.parametrize("variant", VARIANTS)
class TestVindicatorAcrossBackends:
    @pytest.mark.parametrize("name", sorted(LITMUS))
    def test_documents_identical_on_litmus(self, name, variant):
        trace = LITMUS[name]()
        assert (_document(trace, "python", vindicate_all=True,
                          variant=variant)
                == _document(trace, "compiled", vindicate_all=True,
                             variant=variant))

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_documents_identical_on_workloads(self, name, variant):
        trace = execute(WORKLOADS[name](scale=0.3), seed=2)
        assert (_document(trace, "python", prefilter=True, variant=variant)
                == _document(trace, "compiled", prefilter=True,
                             variant=variant))

    def test_document_names_its_backend(self, variant):
        trace = LITMUS["figure1"]()
        for backend in kernels.backends():
            kernels.set_backend(backend)
            doc = Vindicator(variant=variant).run(trace).to_document()
            assert doc["kernels"]["backend"] == backend
