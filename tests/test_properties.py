"""Property-based tests (hypothesis) for the paper's core guarantees.

Traces are generated from seeds through the library's own well-formed
generator, so hypothesis shrinks over the seed/config space:

* **DC completeness** (Theorem 1): every predictable race (per the
  exhaustive oracle) is a DC-race, and every trace with a predictable
  race has a DC-race;
* **Vindicator soundness**: a RACE verdict always comes with a witness
  the Definition 2.1 checker accepts, and the oracle confirms the pair;
  a NO_RACE verdict is never issued for an oracle-predictable pair;
* **Witness structure**: witnesses end with the racing pair, adjacent;
* **Monotonicity**: HB-races ⊆ WCP-races ⊆ DC-races at every access.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.dc import DCDetector
from repro.analysis.hb import HBDetector
from repro.analysis.reference import ReferenceAnalysis
from repro.analysis.wcp import WCPDetector
from repro.vindicate.oracle import (
    OracleBudgetExceededError,
    PredictabilityOracle,
)
from repro.vindicate.verify import check_witness
from repro.vindicate.vindicator import Verdict, Vindicator
from repro.traces.gen import GeneratorConfig, random_trace

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

small_configs = st.builds(
    GeneratorConfig,
    threads=st.integers(2, 4),
    events=st.integers(6, 14),
    variables=st.integers(1, 3),
    locks=st.integers(1, 3),
    max_nesting=st.integers(1, 2),
    use_fork_join=st.booleans(),
    volatiles=st.integers(0, 1),
)

seeds = st.integers(0, 10_000)


def oracle_for(trace):
    try:
        oracle = PredictabilityOracle(trace, max_states=120_000)
        oracle.predictable_pairs()
        return oracle
    except OracleBudgetExceededError:
        return None


class TestDCCompleteness:
    @SETTINGS
    @given(seed=seeds, config=small_configs)
    def test_predictable_pairs_are_dc_unordered(self, seed, config):
        trace = random_trace(seed, config)
        oracle = oracle_for(trace)
        if oracle is None:
            return
        ref = ReferenceAnalysis(trace)
        for lo, hi in oracle.predictable_pairs():
            assert not ref.dc_ordered(lo, hi), (
                f"predictable pair ({lo},{hi}) is DC-ordered")

    @SETTINGS
    @given(seed=seeds, config=small_configs)
    def test_trace_with_predictable_race_has_dc_race(self, seed, config):
        trace = random_trace(seed, config)
        oracle = oracle_for(trace)
        if oracle is None:
            return
        if oracle.has_predictable_race():
            report = DCDetector(build_graph=False).analyze(trace)
            assert report.dynamic_count > 0


class TestVindicatorSoundness:
    @SETTINGS
    @given(seed=seeds, config=small_configs,
           transitive=st.booleans())
    def test_verdicts_agree_with_oracle(self, seed, config, transitive):
        trace = random_trace(seed, config)
        oracle = oracle_for(trace)
        if oracle is None:
            return
        report = Vindicator(vindicate_all=True,
                            transitive_force=transitive).run(trace)
        for v in report.vindications:
            predictable = oracle.is_predictable(v.race.first, v.race.second)
            if v.verdict is Verdict.RACE:
                assert predictable, f"false positive: {v}"
                assert v.witness is not None
                check_witness(trace, v.witness, v.race.first, v.race.second)
            elif v.verdict is Verdict.NO_RACE:
                assert not predictable, f"refuted a true race: {v}"

    @SETTINGS
    @given(seed=seeds, config=small_configs,
           policy=st.sampled_from(["latest", "earliest", "random"]))
    def test_witnesses_are_correct_under_any_policy(self, seed, config,
                                                    policy):
        trace = random_trace(seed, config)
        report = Vindicator(vindicate_all=True, policy=policy).run(trace)
        for v in report.vindications:
            if v.witness is not None:
                check_witness(trace, v.witness, v.race.first, v.race.second)
                assert v.witness.events()[-2].eid == v.race.first.eid
                assert v.witness.events()[-1].eid == v.race.second.eid


#: Configs that force volatile rd→wr chains between racing accesses —
#: the shape that broke WCP⊆DC nesting before forced edges were joined
#: into H as well as P (the seed-7500 bug): an order forced into P at a
#: race must survive WCP's H-snapshot propagation channels.
volatile_chain_configs = st.builds(
    GeneratorConfig,
    threads=st.integers(3, 5),
    events=st.integers(8, 24),
    variables=st.integers(1, 2),
    locks=st.integers(1, 2),
    max_nesting=st.just(1),
    use_fork_join=st.booleans(),
    volatiles=st.integers(1, 3),
)


def assert_racing_sets_nest(trace):
    hb, wcp, dc = HBDetector(), WCPDetector(), DCDetector(build_graph=False)
    for det in (hb, wcp, dc):
        assert det.force_order  # the invariant under test is the forced one
        det.analyze(trace)
    for eid, priors in hb.racing_at.items():
        assert priors <= wcp.racing_at.get(eid, frozenset())
    for eid, priors in wcp.racing_at.items():
        assert priors <= dc.racing_at.get(eid, frozenset())
    return hb, wcp, dc


class TestMonotonicity:
    @SETTINGS
    @given(seed=seeds, config=small_configs)
    def test_racing_sets_nest(self, seed, config):
        assert_racing_sets_nest(random_trace(seed, config))

    @SETTINGS
    @given(seed=seeds, config=volatile_chain_configs)
    def test_racing_sets_nest_volatile_chains(self, seed, config):
        assert_racing_sets_nest(random_trace(seed, config))

    def test_racing_sets_nest_seed_7500(self):
        # Pinned repro of the WCP forced-edge propagation bug (ROADMAP,
        # PR 5 close-out): T2's write races T4's read (0≺3 forced into
        # T4's P only), T4's volatile read then recorded an H-only
        # snapshot, so the forced component never reached T3's P via
        # the volatile rd→wr chain and WCP reported racing_at(8) =
        # {0,1,6} where DC had {1,6}. With forced edges joined into H
        # as well as P, prior 0 is ordered and the sets nest.
        config = GeneratorConfig(threads=4, events=9, variables=1,
                                 locks=1, max_nesting=1, volatiles=1)
        trace = random_trace(7500, config)
        _, wcp, dc = assert_racing_sets_nest(trace)
        assert wcp.racing_at[8] == frozenset({1, 6})
        assert dict(wcp.racing_at) == dict(dc.racing_at)

    @SETTINGS
    @given(seed=seeds, config=small_configs)
    def test_graph_is_never_left_mutated(self, seed, config):
        trace = random_trace(seed, config)
        det = DCDetector()
        report = det.analyze(trace)
        edges_before = set(det.graph.edges())
        from repro.vindicate.vindicator import vindicate_race
        for race in report.races:
            vindicate_race(det.graph, trace, race)
            assert set(det.graph.edges()) == edges_before


class TestFastPath:
    @SETTINGS
    @given(seed=seeds, config=small_configs)
    def test_fast_path_preserves_race_existence(self, seed, config):
        from repro.runtime.instrument import fast_path_filter
        trace = random_trace(seed, config)
        filtered, stats = fast_path_filter(trace)
        assert stats.filtered_events <= stats.original_events
        before = ReferenceAnalysis(trace)
        after = ReferenceAnalysis(filtered)
        assert bool(before.dc_races()) == bool(after.dc_races())
        assert bool(before.hb_races()) == bool(after.hb_races())
