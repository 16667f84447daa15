"""Hierarchy metrics on arbitrary topologies (with or without role annotations).

The paper's critique of descriptive generators centers on hierarchy: structural
generators impose it, degree-based ones ignore it, and the optimization-driven
approach produces it as a by-product.  These metrics quantify how hierarchical
a topology is without relying on imposed labels.
"""

from __future__ import annotations

from typing import List

from ..topology.graph import Topology


def degree_assortativity(topology: Topology) -> float:
    """Pearson correlation of the degrees at the two ends of each link.

    Hierarchical, hub-and-spoke topologies are disassortative (negative);
    random graphs are near zero.  Returns ``nan`` for degenerate cases.
    """
    graph = topology.compiled()
    degrees = graph.degrees()
    xs: List[float] = []
    ys: List[float] = []
    for e in range(graph.num_edges):
        du = degrees[graph.edge_u[e]]
        dv = degrees[graph.edge_v[e]]
        # Count each link in both orientations so the measure is symmetric.
        xs.extend([du, dv])
        ys.extend([dv, du])
    n = len(xs)
    if n < 2:
        return float("nan")
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    syy = sum((y - mean_y) ** 2 for y in ys)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    if sxx == 0 or syy == 0:
        return float("nan")
    return sxy / (sxx * syy) ** 0.5


def core_periphery_ratio(topology: Topology, core_fraction: float = 0.1) -> float:
    """Share of links touching the top ``core_fraction`` of nodes by degree.

    Values near 1 mean almost every link involves the high-degree core
    (strong hierarchy); values near ``core_fraction`` mean links are spread
    uniformly.
    """
    if not 0 < core_fraction <= 1:
        raise ValueError("core_fraction must be in (0, 1]")
    if topology.num_links == 0:
        return 0.0
    graph = topology.compiled()
    degrees = graph.degrees()
    # Stable sort keeps insertion order among equal degrees, matching the
    # object-graph implementation.
    ranked = sorted(range(graph.num_nodes), key=degrees.__getitem__, reverse=True)
    core_size = max(1, int(round(core_fraction * graph.num_nodes)))
    core = bytearray(graph.num_nodes)
    for i in ranked[:core_size]:
        core[i] = 1
    touching = sum(
        1
        for e in range(graph.num_edges)
        if core[graph.edge_u[e]] or core[graph.edge_v[e]]
    )
    return touching / graph.num_edges
