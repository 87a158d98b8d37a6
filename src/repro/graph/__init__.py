"""The constraint graph used by DC analysis and VindicateRace, the
per-thread cut index that answers its reachability queries, and the
bitset closure index kept as the test oracle."""

from repro.graph.constraint_graph import ConstraintGraph
from repro.graph.cuts import CutIndex
from repro.graph.reachability import ReachabilityIndex

__all__ = ["ConstraintGraph", "CutIndex", "ReachabilityIndex"]
