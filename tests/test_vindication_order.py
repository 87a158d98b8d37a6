"""A race's verdict does not depend on the races vindicated before it.

Vindicating a race adds edges to the shared constraint graph and
removes them again. Set iteration order depends on a set's add/remove
history, so any read of the graph whose order matters (the
consecutive-edge loops of ADDCONSTRAINTS, the cycle search's roots and
successors) goes in ascending eid order. Then a race's ``Vindication``
(verdict, cycle, LS constraint count, construction attempts) is the
same whether it is vindicated alone on a fresh graph or after every
other race of the trace, for both the reference graph
(``ConstraintGraph``) and the production one (``ProgramOrderGraph``).
"""

import pytest

from repro.analysis.variants import make_analysis_detector
from repro.runtime import execute
from repro.runtime.workloads import WORKLOADS
from repro.traces.litmus import ALL as LITMUS
from repro.vindicate.vindicator import Vindicator, vindicate_race

VARIANTS = ["fast", "reference"]


def outcome(vindication):
    return (vindication.verdict, vindication.cycle,
            vindication.ls_constraints, vindication.attempts)


def assert_order_free(trace, variant, transitive_force=True):
    report = Vindicator(vindicate_all=True, variant=variant,
                        transitive_force=transitive_force).run(trace)
    dc = make_analysis_detector("dc", variant)
    dc.transitive_force = transitive_force
    dc.analyze(trace)
    for after_others in report.vindications:
        alone = vindicate_race(dc.graph.copy(), trace, after_others.race)
        assert outcome(alone) == outcome(after_others), after_others.race
    return report


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", sorted(LITMUS))
def test_litmus(name, variant):
    assert_order_free(LITMUS[name](), variant,
                      transitive_force=not name.startswith("figure4"))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", ["avrora", "h2", "xalan"])
def test_workload_scale_2(name, variant):
    trace = execute(WORKLOADS[name](scale=2), seed=0)
    report = assert_order_free(trace, variant)
    assert len(report.vindications) > 1

