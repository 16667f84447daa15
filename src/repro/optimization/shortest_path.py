"""Shortest paths over annotated topologies (Dijkstra and BFS variants).

All functions accept node ids and a :class:`Topology` but execute on the
topology's compiled CSR view (:mod:`repro.topology.compiled`): each call
compiles on entry via ``topology.compiled()`` — a cached snapshot reused as
long as ``Topology.version`` is unchanged — and translates ids to int indices
only at the boundary.
"""

from __future__ import annotations

from math import inf
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..topology.compiled import batch_shortest_lengths, default_link_weight
from ..topology.graph import Topology, TopologyError
from ..topology.link import Link

#: Default link weight (alias of the library-wide definition).
_default_weight = default_link_weight


def all_pairs_length_matrix(
    topology: Topology,
    weight: Optional[Callable[[Link], float]] = None,
    sources: Optional[List[Any]] = None,
    backend: Optional[str] = None,
) -> Tuple[List[Any], List[Any], List[List[float]]]:
    """Shortest-path length rows from every source (or a subset), as arrays.

    The array-native sibling of :func:`all_pairs_shortest_lengths` for bulk
    consumers (metrics, benchmarks): no per-pair dictionaries are built.
    Under the numpy backend (the default when scipy is available) the whole
    batch runs through a bounded number of ``csgraph.dijkstra`` dispatches;
    distances are backend-identical.

    Returns:
        ``(sources, columns, rows)`` where ``rows[i][j]`` is the distance
        from ``sources[i]`` to ``columns[j]`` (``inf`` when unreachable) and
        ``columns`` lists every node id in index order.
    """
    graph = topology.compiled()
    source_list = list(sources) if sources is not None else list(graph.ids)
    source_indices: List[int] = []
    for source in source_list:
        if source not in graph.index_of:
            raise TopologyError(f"node {source!r} is not in the topology")
        source_indices.append(graph.index_of[source])
    weights = graph.edge_weights(weight)
    rows = batch_shortest_lengths(graph, source_indices, weights, backend=backend)
    return source_list, list(graph.ids), rows


def all_pairs_shortest_lengths(
    topology: Topology,
    weight: Optional[Callable[[Link], float]] = None,
    sources: Optional[List[Any]] = None,
    backend: Optional[str] = None,
) -> Dict[Any, Dict[Any, float]]:
    """Shortest-path lengths from every source (or a subset) to all nodes.

    The topology is compiled once and the weight column computed once; each
    source then runs the array kernel directly.
    """
    source_list, ids, rows = all_pairs_length_matrix(topology, weight, sources, backend)
    result: Dict[Any, Dict[Any, float]] = {}
    for source, row in zip(source_list, rows):
        if inf in row:
            result[source] = {ids[i]: d for i, d in enumerate(row) if d != inf}
        else:
            result[source] = dict(zip(ids, row))
    return result
