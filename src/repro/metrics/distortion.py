"""Distortion metric (Tangmunarunkit et al.): how tree-like a topology is.

Distortion measures the average factor by which distances grow when the graph
is restricted to a spanning tree.  Trees have distortion exactly 1; richly
meshed graphs pay a larger factor.  The optimization-driven access designs of
the paper are trees or near-trees, so their distortion is ~1, while random
and degree-based baselines are not — one of the separating metrics in E5.
"""

from __future__ import annotations

import random
from typing import Optional

from ..optimization.mst import minimum_spanning_tree
from ..topology.graph import Topology


def tree_distortion(
    topology: Topology,
    sample_pairs: int = 100,
    seed: int = 0,
    spanning_tree: Optional[Topology] = None,
) -> float:
    """Average ratio of spanning-tree hop distance to graph hop distance.

    Args:
        topology: Input topology (must have at least 2 nodes).
        sample_pairs: Number of random node pairs to average over.
        seed: Random seed for pair sampling.
        spanning_tree: Spanning tree to use; a minimum (length-weighted)
            spanning tree of the topology is computed when omitted.

    Returns:
        Mean distortion over connected sampled pairs, or ``nan`` when no pair
        is connected in both graphs.
    """
    node_ids = list(topology.node_ids())
    if len(node_ids) < 2:
        return float("nan")
    tree = spanning_tree if spanning_tree is not None else minimum_spanning_tree(topology)
    rng = random.Random(seed)
    ratios = []
    for _ in range(sample_pairs):
        u, v = rng.sample(node_ids, 2)
        graph_distances = topology.hop_distances(u)
        if v not in graph_distances or graph_distances[v] == 0:
            continue
        tree_distances = tree.hop_distances(u)
        if v not in tree_distances:
            continue
        ratios.append(tree_distances[v] / graph_distances[v])
    if not ratios:
        return float("nan")
    return sum(ratios) / len(ratios)


def cycle_edge_fraction(topology: Topology) -> float:
    """Fraction of links that are *not* needed by a spanning forest.

    Zero for trees/forests; grows with mesh density.  A purely structural
    companion to :func:`tree_distortion` that needs no sampling.
    """
    if topology.num_links == 0:
        return 0.0
    num_components = len(topology.connected_components())
    spanning_links = topology.num_nodes - num_components
    extra = topology.num_links - spanning_links
    return max(0.0, extra / topology.num_links)
