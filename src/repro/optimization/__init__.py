"""Combinatorial optimization substrate used by the topology generators."""

from .mst import (
    UnionFind,
    euclidean_mst_length,
    kruskal_edges,
    minimum_spanning_tree,
    prim_mst_points,
)
from .shortest_path import (
    all_pairs_length_matrix,
    all_pairs_shortest_lengths,
)
from .facility_location import (
    FacilitySolution,
    choose_concentrator_count,
    k_median,
)
from .local_search import (
    AnnealingSchedule,
    SearchResult,
    hill_climb_moves,
    simulated_annealing_moves,
)
from .incremental import (
    AddLink,
    AddNode,
    IncrementalState,
    Move,
    RemoveLink,
    Rewire,
    UpgradeCable,
)

__all__ = [
    "UnionFind",
    "euclidean_mst_length",
    "kruskal_edges",
    "minimum_spanning_tree",
    "prim_mst_points",
    "all_pairs_length_matrix",
    "all_pairs_shortest_lengths",
    "FacilitySolution",
    "choose_concentrator_count",
    "k_median",
    "AnnealingSchedule",
    "SearchResult",
    "hill_climb_moves",
    "simulated_annealing_moves",
    "AddLink",
    "AddNode",
    "IncrementalState",
    "Move",
    "RemoveLink",
    "Rewire",
    "UpgradeCable",
]
