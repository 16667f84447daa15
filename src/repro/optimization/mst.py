"""Minimum spanning trees: Prim and Kruskal over point sets and topologies.

The paper (Section 4.1) places constrained network access design "within the
family of minimum cost spanning tree (MCST) and Steiner tree problems"; MSTs
are both a building block of the access-design heuristics and the natural
lower/upper bounds used when assessing approximation quality (E3, E8).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from ..geography.points import euclidean
from ..topology.graph import Topology


class UnionFind:
    """Disjoint-set forest with path compression and union by rank."""

    def __init__(self, elements: Optional[Sequence[Hashable]] = None) -> None:
        self._parent: Dict[Hashable, Hashable] = {}
        self._rank: Dict[Hashable, int] = {}
        for element in elements or []:
            self.add(element)

    def add(self, element: Hashable) -> None:
        """Register an element as its own singleton set (idempotent)."""
        if element not in self._parent:
            self._parent[element] = element
            self._rank[element] = 0

    def find(self, element: Hashable) -> Hashable:
        """Return the representative of the set containing ``element``."""
        if element not in self._parent:
            raise KeyError(f"element {element!r} is not in the union-find structure")
        root = element
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[element] != root:
            self._parent[element], element = root, self._parent[element]
        return root

    def union(self, a: Hashable, b: Hashable) -> bool:
        """Merge the sets containing ``a`` and ``b``; return True if they were distinct."""
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return False
        if self._rank[root_a] < self._rank[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        if self._rank[root_a] == self._rank[root_b]:
            self._rank[root_a] += 1
        return True

    def connected(self, a: Hashable, b: Hashable) -> bool:
        """Return True if ``a`` and ``b`` are in the same set."""
        return self.find(a) == self.find(b)

    def num_sets(self) -> int:
        """Number of disjoint sets currently tracked."""
        return sum(1 for element in self._parent if self.find(element) == element)


def kruskal_edges(
    nodes: Sequence[Hashable],
    edges: Sequence[Tuple[Hashable, Hashable, float]],
) -> List[Tuple[Hashable, Hashable, float]]:
    """Kruskal's algorithm over an explicit weighted edge list.

    Args:
        nodes: All nodes that must be spanned.
        edges: ``(u, v, weight)`` triples.

    Returns:
        The chosen MST (or minimum spanning forest) edges.
    """
    forest = UnionFind(nodes)
    chosen = []
    for u, v, weight in sorted(edges, key=lambda e: e[2]):
        if forest.union(u, v):
            chosen.append((u, v, weight))
    return chosen


def prim_mst_points(
    points: Sequence[Tuple[float, float]],
    distance: Callable[[Tuple[float, float], Tuple[float, float]], float] = euclidean,
) -> List[Tuple[int, int]]:
    """Prim's algorithm on the complete geometric graph over ``points``.

    Runs in O(n^2), which is appropriate for the dense (complete) graphs that
    arise when any pair of sites could be connected by new fiber.

    Returns:
        MST edges as index pairs into ``points``.
    """
    n = len(points)
    if n == 0:
        return []
    in_tree = [False] * n
    best_cost = [float("inf")] * n
    best_parent = [-1] * n
    best_cost[0] = 0.0
    edges: List[Tuple[int, int]] = []
    for _ in range(n):
        current = -1
        current_cost = float("inf")
        for candidate in range(n):
            if not in_tree[candidate] and best_cost[candidate] < current_cost:
                current = candidate
                current_cost = best_cost[candidate]
        if current == -1:
            break
        in_tree[current] = True
        if best_parent[current] >= 0:
            edges.append((best_parent[current], current))
        for other in range(n):
            if not in_tree[other]:
                d = distance(points[current], points[other])
                if d < best_cost[other]:
                    best_cost[other] = d
                    best_parent[other] = current
    return edges


def minimum_spanning_tree(
    topology: Topology,
    weight: Callable[[Any], float] = lambda link: link.length,
) -> Topology:
    """Minimum spanning tree (or forest) of an existing topology.

    Args:
        topology: Input topology.
        weight: Function mapping a :class:`~repro.topology.link.Link` to its
            weight; defaults to physical length.

    Returns:
        A new :class:`Topology` containing all nodes and only the MST links
        (annotations are copied from the originals).
    """
    edges = [(link.source, link.target, weight(link)) for link in topology.links()]
    chosen = kruskal_edges(list(topology.node_ids()), edges)
    mst = topology.subgraph(topology.node_ids(), name=f"{topology.name}-mst")
    keep = {(u, v) for u, v, _ in chosen}
    keep |= {(v, u) for u, v in keep}
    for link in list(mst.links()):
        if (link.source, link.target) not in keep:
            mst.remove_link(link.source, link.target)
    return mst


def euclidean_mst_length(points: Sequence[Tuple[float, float]]) -> float:
    """Total length of the Euclidean MST over ``points``.

    This is the classical lower bound on the fiber mileage of any network
    connecting the points, used by the benchmark harness to normalize costs.
    """
    edges = prim_mst_points(points)
    return sum(euclidean(points[u], points[v]) for u, v in edges)
