"""Path-length metrics: average shortest path and diameter in hops.

Both metrics run on the topology's compiled CSR view: the graph is compiled
once per call (reusing the version-keyed cache) and the hop sweeps go through
the batch kernel :func:`~repro.topology.compiled.batch_hop_lengths`, which
dispatches many sources per ``scipy.sparse.csgraph`` call under the numpy
backend and falls back to the per-source pure-Python BFS otherwise.  Hop
counts are exact integers, so metric values do not depend on the backend.
"""

from __future__ import annotations

import random
from typing import Optional

from ..topology.compiled import batch_hop_lengths
from ..topology.graph import Topology


def average_shortest_path_hops(
    topology: Topology,
    sample_size: Optional[int] = None,
    seed: int = 0,
) -> float:
    """Mean hop count over (sampled) connected node pairs.

    For large graphs a uniform sample of ``sample_size`` source nodes is used;
    the exact all-pairs average is computed when ``sample_size`` is ``None``
    or at least the node count.
    """
    node_ids = list(topology.node_ids())
    if len(node_ids) < 2:
        return 0.0
    if sample_size is not None and sample_size < len(node_ids):
        rng = random.Random(seed)
        sources = rng.sample(node_ids, sample_size)
    else:
        sources = node_ids
    graph = topology.compiled()
    total = 0.0
    count = 0
    source_indices = [graph.index_of[source] for source in sources]
    for row in batch_hop_lengths(graph, source_indices):
        for d in row:
            if d > 0:
                total += d
                count += 1
    return total / count if count else 0.0


def hop_diameter(topology: Topology, sample_size: Optional[int] = None, seed: int = 0) -> int:
    """Largest hop distance over (sampled) connected pairs."""
    node_ids = list(topology.node_ids())
    if len(node_ids) < 2:
        return 0
    if sample_size is not None and sample_size < len(node_ids):
        rng = random.Random(seed)
        sources = rng.sample(node_ids, sample_size)
    else:
        sources = node_ids
    graph = topology.compiled()
    source_indices = [graph.index_of[source] for source in sources]
    diameter = 0
    for row in batch_hop_lengths(graph, source_indices):
        largest = max(row)
        if largest > diameter:
            diameter = largest
    return diameter
