"""Clustering coefficients (local, average, global/transitivity).

Clustering is one of the metrics the paper lists (via Bu & Towsley [8]) as
distinguishing between topology generators that match degree distributions:
tree-like HOT designs have zero clustering while preferential-attachment and
GLP graphs do not.
"""

from __future__ import annotations

from typing import Any, Dict

from ..topology.graph import Topology


def local_clustering(topology: Topology, node_id: Any) -> float:
    """Local clustering coefficient of one node.

    Fraction of pairs of neighbors that are themselves connected; nodes of
    degree < 2 have coefficient 0 by convention.
    """
    neighbors = topology.neighbors(node_id)
    k = len(neighbors)
    if k < 2:
        return 0.0
    links_between_neighbors = 0
    for i in range(k):
        for j in range(i + 1, k):
            if topology.has_link(neighbors[i], neighbors[j]):
                links_between_neighbors += 1
    return 2.0 * links_between_neighbors / (k * (k - 1))


def clustering_by_node(topology: Topology) -> Dict[Any, float]:
    """Local clustering coefficient of every node."""
    return {node_id: local_clustering(topology, node_id) for node_id in topology.node_ids()}


def average_clustering(topology: Topology) -> float:
    """Mean of the local clustering coefficients (0 for an empty topology)."""
    coefficients = clustering_by_node(topology)
    if not coefficients:
        return 0.0
    return sum(coefficients.values()) / len(coefficients)


def transitivity(topology: Topology) -> float:
    """Global clustering coefficient: 3 x triangles / connected triples."""
    triangles = 0
    triples = 0
    for node_id in topology.node_ids():
        neighbors = topology.neighbors(node_id)
        k = len(neighbors)
        triples += k * (k - 1) // 2
        for i in range(k):
            for j in range(i + 1, k):
                if topology.has_link(neighbors[i], neighbors[j]):
                    triangles += 1
    # Each triangle is counted once per corner (3 times) in the loop above,
    # matching the 3-in-the-numerator convention exactly.
    if triples == 0:
        return 0.0
    return triangles / triples
