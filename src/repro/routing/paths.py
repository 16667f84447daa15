"""Path selection for traffic routing over annotated topologies.

Routing is a substrate of the evaluation, not a contribution of the paper:
backbone provisioning (E4) and utilization analysis need demand routed over
shortest paths so that link loads (and hence cable choices and costs) can be
computed.

The cache in this module runs on the topology's compiled CSR view and is
keyed on ``Topology.version``: any structural mutation automatically
invalidates cached searches, so stale paths can no longer be served silently.
"""

from __future__ import annotations

from math import inf
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from ..optimization.shortest_path import dijkstra, reconstruct_path
from ..topology.compiled import CompiledGraph, default_link_weight, dijkstra_indices
from ..topology.graph import Topology, TopologyError
from ..topology.link import Link


#: Weight functions selectable by name.
WEIGHT_FUNCTIONS: Dict[str, Callable[[Link], float]] = {
    "length": default_link_weight,
    "hops": lambda link: 1.0,
    "inverse-capacity": lambda link: (
        1.0 / link.capacity if link.capacity else 1.0
    ),
}


class RoutedPath(NamedTuple):
    """A shortest path with its link objects resolved once.

    Attributes:
        nodes: Node ids along the path (source first).
        links: The :class:`Link` object of every hop, aligned with the node
            pairs — resolved from the predecessor tree, not by per-hop lookup.
        keys: Canonical link key per hop (for load accounting dictionaries).
    """

    nodes: List[Any]
    links: List[Link]
    keys: List[Tuple[Any, Any]]


class PathCache:
    """Caches single-source shortest-path computations for repeated queries.

    Searches run on the compiled view of the topology and are cached per
    source.  The cache checks ``Topology.version`` on every query and
    recompiles/clears itself when the topology was mutated, which fixes the
    historical failure mode of serving stale paths after a mutation unless
    :meth:`invalidate` was called manually (still available, now optional).
    """

    def __init__(self, topology: Topology, weight: Callable[[Link], float]) -> None:
        self._topology = topology
        self._weight = weight
        self._graph: Optional[CompiledGraph] = None
        self._weights = None
        self._cache: Dict[int, tuple] = {}

    def _view(self) -> CompiledGraph:
        graph = self._topology.compiled()
        if graph is not self._graph:
            self._graph = graph
            self._weights = graph.edge_weights(self._weight)
            self._cache.clear()
        return graph

    def _search(self, graph: CompiledGraph, source: Any) -> tuple:
        if source not in graph.index_of:
            raise TopologyError(f"node {source!r} is not in the topology")
        source_index = graph.index_of[source]
        state = self._cache.get(source_index)
        if state is None:
            state = dijkstra_indices(graph, source_index, self._weights)
            self._cache[source_index] = state
        return state

    def route(self, source: Any, target: Any) -> Optional[RoutedPath]:
        """Shortest path with per-hop links resolved, ``None`` when unreachable."""
        graph = self._view()
        if target not in graph.index_of:
            return None
        dist, pred, pred_edge = self._search(graph, source)
        target_index = graph.index_of[target]
        if dist[target_index] == inf:
            return None
        ids = graph.ids
        edge_keys = graph.edge_keys
        edge_links = graph.links
        nodes = [target]
        links: List[Link] = []
        keys: List[Tuple[Any, Any]] = []
        current = target_index
        source_index = graph.index_of[source]
        while current != source_index:
            edge = pred_edge[current]
            links.append(edge_links[edge])
            keys.append(edge_keys[edge])
            current = pred[current]
            nodes.append(ids[current])
        nodes.reverse()
        links.reverse()
        keys.reverse()
        return RoutedPath(nodes=nodes, links=links, keys=keys)

    def path(self, source: Any, target: Any) -> Optional[List[Any]]:
        """Shortest path between two nodes, or ``None`` when unreachable."""
        routed = self.route(source, target)
        return None if routed is None else routed.nodes

    def distance(self, source: Any, target: Any) -> float:
        """Shortest-path distance, ``inf`` when unreachable."""
        graph = self._view()
        if target not in graph.index_of:
            return inf
        dist, _, _ = self._search(graph, source)
        return dist[graph.index_of[target]]

    def invalidate(self) -> None:
        """Clear the cache explicitly (mutations already invalidate it)."""
        self._cache.clear()
        self._graph = None
        self._weights = None


def resolve_weight(weight: Optional[str]) -> Callable[[Link], float]:
    """Look up a weight function by name (``None`` → length-based)."""
    if weight is None:
        return WEIGHT_FUNCTIONS["length"]
    if weight not in WEIGHT_FUNCTIONS:
        raise KeyError(f"unknown weight {weight!r}; available: {sorted(WEIGHT_FUNCTIONS)}")
    return WEIGHT_FUNCTIONS[weight]


def shortest_path_between(
    topology: Topology, source: Any, target: Any, weight: Optional[str] = None
) -> Optional[List[Any]]:
    """One-off shortest path using a named weight function."""
    cache = PathCache(topology, resolve_weight(weight))
    return cache.path(source, target)


def k_shortest_node_disjoint_paths(
    topology: Topology, source: Any, target: Any, k: int = 2, weight: Optional[str] = None
) -> List[List[Any]]:
    """Up to ``k`` node-disjoint paths, found by iterative removal.

    A simple (not optimal) disjoint-path heuristic: find a shortest path,
    delete its interior nodes, repeat.  Used by the redundancy analysis in E7
    to check how many independent routes customers have after backup links are
    added.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    weight_function = resolve_weight(weight)
    working = topology.copy()
    paths: List[List[Any]] = []
    for _ in range(k):
        if not (working.has_node(source) and working.has_node(target)):
            break
        distances, predecessors = dijkstra(working, source, weight_function)
        if target not in distances:
            break
        path = reconstruct_path(predecessors, source, target)
        paths.append(path)
        for node in path[1:-1]:
            working.remove_node(node)
        if len(path) == 2:
            # Direct link: remove it so the next iteration finds another route.
            if working.has_link(source, target):
                working.remove_link(source, target)
    return paths
