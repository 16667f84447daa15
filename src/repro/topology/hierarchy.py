"""Hierarchy analysis for ISP topologies.

Section 2.2 of the paper describes the decomposition of an ISP network into
backbone (WAN), distribution (MAN), and customer (LAN) levels.  This module
provides helpers to inspect and summarize that hierarchy on an annotated
:class:`~repro.topology.graph.Topology`.

All aggregate helpers run against the compiled view: level classification is
a single pass over the compiled endpoint arrays, and nearest-core depths come
from **one** multi-source BFS (:func:`~repro.topology.compiled.
multi_source_bfs_indices`) instead of one BFS per core node — the same
O(V + E) kernels the hierarchical routing overlay
(:mod:`repro.routing.hierarchical`) partitions with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .compiled import CompiledGraph, multi_source_bfs_indices
from .graph import Topology
from .node import NodeRole

#: Human-readable level names, ordered from the core outwards.
LEVEL_NAMES: Tuple[str, ...] = ("core", "backbone", "distribution", "access", "customer")

#: Rank per level name: position in :data:`LEVEL_NAMES` (0 = innermost).
LEVEL_RANKS: Dict[str, int] = {name: rank for rank, name in enumerate(LEVEL_NAMES)}

_ROLE_TO_LEVEL: Dict[NodeRole, str] = {
    NodeRole.CORE: "core",
    NodeRole.BACKBONE: "backbone",
    NodeRole.PEERING: "backbone",
    NodeRole.DISTRIBUTION: "distribution",
    NodeRole.ACCESS: "access",
    NodeRole.CUSTOMER: "customer",
    NodeRole.GENERIC: "customer",
}

_ROLE_TO_RANK: Dict[NodeRole, int] = {
    role: LEVEL_RANKS[level] for role, level in _ROLE_TO_LEVEL.items()
}


def level_of(role: NodeRole) -> str:
    """Map a node role to its hierarchy level name."""
    return _ROLE_TO_LEVEL[role]


def compiled_level_ranks(graph: CompiledGraph) -> List[int]:
    """Hierarchy level rank per compiled node index (0 = core ... 4 = customer).

    One pass over the snapshot's node objects; the rank column is what the
    hierarchical routing partition and the summary helpers classify against.
    """
    return [_ROLE_TO_RANK[node.role] for node in graph.nodes]


@dataclass
class HierarchySummary:
    """Aggregate statistics of the WAN/MAN/LAN hierarchy of a topology.

    Attributes:
        level_counts: Number of nodes per hierarchy level.
        intra_level_links: Number of links whose endpoints share a level.
        inter_level_links: Number of links whose endpoints differ in level.
        level_link_matrix: Link counts keyed by (level, level) pairs with the
            lexicographically smaller level first.
        backbone_fraction: Fraction of nodes in the core or backbone levels.
        mean_customer_depth: Mean hop distance from customers to the nearest
            core node (``nan`` if there are no core nodes or customers).
    """

    level_counts: Dict[str, int] = field(default_factory=dict)
    intra_level_links: int = 0
    inter_level_links: int = 0
    level_link_matrix: Dict[Tuple[str, str], int] = field(default_factory=dict)
    backbone_fraction: float = 0.0
    mean_customer_depth: float = float("nan")

    def count(self, level: str) -> int:
        """Node count for a level (0 if absent)."""
        return self.level_counts.get(level, 0)


def summarize_hierarchy(topology: Topology) -> HierarchySummary:
    """Compute a :class:`HierarchySummary` for a topology.

    Link classification is a single pass over the compiled endpoint arrays
    (``edge_u``/``edge_v`` against the per-index rank column) instead of two
    object-graph node lookups per link, and the customer-depth aggregate is
    one multi-source BFS — the summary stays cheap at the scale-tier sizes
    the E12 report records it for.
    """
    if topology.num_nodes == 0:
        return HierarchySummary()
    graph = topology.compiled()
    ranks = compiled_level_ranks(graph)

    level_counts: Dict[str, int] = {}
    for rank in ranks:
        level = LEVEL_NAMES[rank]
        level_counts[level] = level_counts.get(level, 0) + 1

    # Canonical (lexicographically ordered) level-pair key per rank pair.
    pair_key: Dict[Tuple[int, int], Tuple[str, str]] = {}
    for ru in range(len(LEVEL_NAMES)):
        for rv in range(len(LEVEL_NAMES)):
            lu, lv = LEVEL_NAMES[ru], LEVEL_NAMES[rv]
            pair_key[(ru, rv)] = (lu, lv) if lu <= lv else (lv, lu)

    intra = 0
    inter = 0
    matrix: Dict[Tuple[str, str], int] = {}
    edge_u = graph.edge_u.tolist()
    edge_v = graph.edge_v.tolist()
    for u, v in zip(edge_u, edge_v):
        ru = ranks[u]
        rv = ranks[v]
        key = pair_key[(ru, rv)]
        matrix[key] = matrix.get(key, 0) + 1
        if ru == rv:
            intra += 1
        else:
            inter += 1

    total_nodes = graph.num_nodes
    backbone_nodes = level_counts.get("core", 0) + level_counts.get("backbone", 0)
    backbone_fraction = backbone_nodes / total_nodes if total_nodes else 0.0

    return HierarchySummary(
        level_counts=level_counts,
        intra_level_links=intra,
        inter_level_links=inter,
        level_link_matrix=matrix,
        backbone_fraction=backbone_fraction,
        mean_customer_depth=_mean_customer_depth(topology),
    )


def _mean_customer_depth(topology: Topology) -> float:
    """Mean BFS hop distance from each customer to its nearest core node.

    One multi-source BFS over the compiled graph; bit-identical to the
    per-core minimum (the nearest-source hop distance *is* that minimum) at
    O(V + E) total instead of O(cores x (V + E)).
    """
    graph = topology.compiled()
    cores = [i for i, node in enumerate(graph.nodes) if node.role == NodeRole.CORE]
    customers = [
        i for i, node in enumerate(graph.nodes) if node.role == NodeRole.CUSTOMER
    ]
    if not cores or not customers:
        return float("nan")
    dist = multi_source_bfs_indices(graph, cores)
    depths = [dist[c] for c in customers if dist[c] != -1]
    if not depths:
        return float("nan")
    return sum(depths) / len(depths)
