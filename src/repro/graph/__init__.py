"""The constraint graph used by DC analysis and VindicateRace (with
program order stored, for the reference detectors, or implicit, for the
production one), the per-thread cut index that answers its reachability
queries, and the bitset closure index kept as the test oracle."""

from repro.graph.constraint_graph import ConstraintGraph
from repro.graph.cuts import CutIndex
from repro.graph.program_order import ProgramOrderGraph
from repro.graph.reachability import ReachabilityIndex

__all__ = ["ConstraintGraph", "CutIndex", "ProgramOrderGraph",
           "ReachabilityIndex"]
