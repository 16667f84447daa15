"""Expansion metric (Tangmunarunkit et al., reference [30] in the paper).

Expansion measures how quickly the ball of nodes reachable within ``h`` hops
grows with ``h``.  Together with resilience and distortion it forms the
metric triple that "Network topology generators: degree-based vs. structural"
uses to separate generator families — exactly the comparison experiment E5
reruns against the optimization-driven topologies.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from ..topology.compiled import bfs_indices
from ..topology.graph import Topology, TopologyError


def ball_sizes(topology: Topology, source, max_hops: Optional[int] = None) -> Dict[int, int]:
    """Number of nodes within ``h`` hops of ``source`` for each ``h``.

    Returns a mapping ``h -> |ball(source, h)|`` including ``h = 0`` (just the
    source) up to the node's eccentricity or ``max_hops``.

    Runs a single array BFS on the compiled view and accumulates a hop
    histogram, instead of re-scanning a distance dictionary per radius.
    """
    graph = topology.compiled()
    if source not in graph.index_of:
        raise TopologyError(f"node {source!r} is not in the topology")
    dist, order = bfs_indices(graph, graph.index_of[source])
    eccentricity = dist[order[-1]] if order else 0
    limit = eccentricity if max_hops is None else min(max_hops, eccentricity)
    per_hop = [0] * (eccentricity + 1)
    for i in order:
        per_hop[dist[i]] += 1
    sizes = {}
    running = 0
    for h in range(limit + 1):
        running += per_hop[h]
        sizes[h] = running
    return sizes


def expansion_curve(
    topology: Topology,
    sample_size: Optional[int] = 50,
    max_hops: Optional[int] = None,
    seed: int = 0,
) -> Dict[int, float]:
    """Average normalized ball size per hop count, over sampled sources.

    The value at ``h`` is the expected fraction of the network reachable
    within ``h`` hops from a random node; fast-expanding graphs (well-mixed
    random graphs) reach 1 quickly, while geographically constrained trees
    expand slowly.
    """
    node_ids = list(topology.node_ids())
    if not node_ids:
        return {}
    n = len(node_ids)
    if sample_size is not None and sample_size < n:
        rng = random.Random(seed)
        sources = rng.sample(node_ids, sample_size)
    else:
        sources = node_ids

    aggregate: Dict[int, float] = {}
    counts: Dict[int, int] = {}
    max_eccentricity = 0
    per_source: List[Dict[int, int]] = []
    for source in sources:
        sizes = ball_sizes(topology, source, max_hops)
        per_source.append(sizes)
        if sizes:
            max_eccentricity = max(max_eccentricity, max(sizes))
    limit = max_eccentricity if max_hops is None else min(max_hops, max_eccentricity)
    for h in range(limit + 1):
        total = 0.0
        for sizes in per_source:
            # Past a source's eccentricity the ball has stopped growing.
            reachable = sizes.get(h, sizes[max(sizes)] if sizes else 0)
            total += reachable / n
        aggregate[h] = total / len(per_source)
        counts[h] = len(per_source)
    return aggregate


def expansion_at(topology: Topology, hops: int, sample_size: Optional[int] = 50, seed: int = 0) -> float:
    """Expected fraction of nodes reachable within ``hops`` hops of a random node."""
    if hops < 0:
        raise ValueError("hops must be non-negative")
    curve = expansion_curve(topology, sample_size=sample_size, max_hops=hops, seed=seed)
    if not curve:
        return 0.0
    return curve.get(hops, curve[max(curve)])
