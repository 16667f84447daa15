"""Annotated undirected topology graph.

:class:`Topology` is the central data structure of the library.  It is an
undirected graph whose nodes and links carry the annotations (role, location,
capacity, cost) that the paper argues are an inseparable part of "topology".
All generators — the optimization-driven ones in :mod:`repro.core` and the
descriptive baselines in :mod:`repro.generators` — produce ``Topology``
instances, and all metrics in :mod:`repro.metrics` consume them.

The implementation is a plain adjacency-dictionary graph, independent of
networkx; :mod:`repro.topology.serialization` saves and loads it as JSON.
"""

from __future__ import annotations

from operator import attrgetter
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .link import Link, edge_key
from .node import Node, NodeRole

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from .compiled import CompiledGraph


_SEQ = attrgetter("seq")


class TopologyError(Exception):
    """Raised for structural errors (missing nodes, duplicate links, ...)."""


class Topology:
    """An undirected graph with annotated nodes and links.

    Args:
        name: Human-readable name for the topology (e.g. the generator that
            produced it).

    Example:
        >>> topo = Topology(name="example")
        >>> topo.add_node("a", role=NodeRole.CORE, location=(0.0, 0.0))
        >>> topo.add_node("b", role=NodeRole.CUSTOMER, location=(1.0, 0.0))
        >>> _ = topo.add_link("a", "b", capacity=100.0)
        >>> topo.degree("a")
        1
    """

    def __init__(self, name: str = "topology") -> None:
        self.name = name
        self._nodes: Dict[Any, Node] = {}
        self._adjacency: Dict[Any, Dict[Any, Link]] = {}
        self._links: Dict[Tuple[Any, Any], Link] = {}
        # _links and every adjacency row iterate in ascending Link.seq order.
        # An undo re-insertion (_reinsert_link) puts its link back in place
        # in the two rows but appends it to _links and sets
        # _links_unordered; the next ordered read re-sorts once.
        self._next_seq = 0
        self._links_unordered = False
        self.metadata: Dict[str, Any] = {}
        self._version: int = 0
        self._compiled: Optional["CompiledGraph"] = None

    # ------------------------------------------------------------------
    # Compiled view / invalidation
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotonically increasing structural version.

        Bumped by every mutating method (node/link addition or removal), so
        caches keyed on it, such as :meth:`compiled`, know exactly when their
        snapshot went stale.
        """
        return self._version

    def _bump_version(self) -> None:
        self._version += 1
        self._compiled = None

    def touch(self) -> None:
        """Manually bump :attr:`version`.

        Call after mutating link/node *annotations* in place (e.g. a link
        length, which the cached ``"length"`` routing column reads) so the
        cached compiled view and its weight columns rebuild; structural
        mutations bump automatically.
        """
        self._bump_version()

    def compiled(self) -> "CompiledGraph":
        """Return the CSR view of this topology, rebuilding only when stale.

        The returned :class:`~repro.topology.compiled.CompiledGraph` is cached
        and shared by all analysis kernels until the next structural mutation.
        """
        from .compiled import CompiledGraph

        if self._compiled is None or self._compiled.version != self._version:
            self._compiled = CompiledGraph(self)
        return self._compiled

    # ------------------------------------------------------------------
    # Node operations
    # ------------------------------------------------------------------
    def add_node(
        self,
        node_id: Any,
        role: NodeRole = NodeRole.GENERIC,
        location: Optional[Tuple[float, float]] = None,
        capacity: Optional[float] = None,
        demand: float = 0.0,
        max_degree: Optional[int] = None,
        city: Optional[str] = None,
        **attributes: Any,
    ) -> Node:
        """Add a node; raises :class:`TopologyError` if it already exists."""
        if node_id in self._nodes:
            raise TopologyError(f"node {node_id!r} already exists")
        node = Node(
            node_id=node_id,
            role=role,
            location=location,
            capacity=capacity,
            demand=demand,
            max_degree=max_degree,
            city=city,
            attributes=dict(attributes),
        )
        self._nodes[node_id] = node
        self._adjacency[node_id] = {}
        self._bump_version()
        return node

    def add_node_object(self, node: Node) -> Node:
        """Add an already-constructed :class:`Node` instance."""
        if node.node_id in self._nodes:
            raise TopologyError(f"node {node.node_id!r} already exists")
        self._nodes[node.node_id] = node
        self._adjacency[node.node_id] = {}
        self._bump_version()
        return node

    def remove_node(self, node_id: Any) -> None:
        """Remove a node and all links incident to it."""
        self._require_node(node_id)
        for neighbor in list(self._adjacency[node_id]):
            self.remove_link(node_id, neighbor)
        del self._adjacency[node_id]
        del self._nodes[node_id]
        self._bump_version()

    def has_node(self, node_id: Any) -> bool:
        """Return True if the node exists."""
        return node_id in self._nodes

    def node(self, node_id: Any) -> Node:
        """Return the :class:`Node` object for ``node_id``."""
        self._require_node(node_id)
        return self._nodes[node_id]

    def nodes(self) -> Iterator[Node]:
        """Iterate over node objects."""
        return iter(self._nodes.values())

    def node_ids(self) -> Iterator[Any]:
        """Iterate over node identifiers."""
        return iter(self._nodes.keys())

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._nodes)

    # ------------------------------------------------------------------
    # Link operations
    # ------------------------------------------------------------------
    def add_link(
        self,
        u: Any,
        v: Any,
        capacity: Optional[float] = None,
        length: Optional[float] = None,
        cable: Optional[str] = None,
        install_cost: float = 0.0,
        usage_cost: float = 0.0,
        load: float = 0.0,
        **attributes: Any,
    ) -> Link:
        """Add an undirected link between existing nodes ``u`` and ``v``.

        If ``length`` is not given and both endpoints have locations, the
        Euclidean distance between them is used.

        Raises:
            TopologyError: if either endpoint is missing, the link already
                exists, or a degree constraint on an endpoint is violated.
        """
        self._require_node(u)
        self._require_node(v)
        if u == v:
            raise TopologyError(f"self-loops are not allowed (node {u!r})")
        if v in self._adjacency[u]:
            raise TopologyError(f"link {edge_key(u, v)} already exists")
        self._check_degrees(u, v)
        if length is None:
            length = self._euclidean_length(u, v)
        link = Link(
            source=u,
            target=v,
            capacity=capacity,
            length=length,
            cable=cable,
            install_cost=install_cost,
            usage_cost=usage_cost,
            load=load,
            attributes=dict(attributes),
        )
        self._append_link(link)
        return link

    def add_link_object(self, link: Link) -> Link:
        """Add an already-constructed :class:`Link` instance.

        The link takes this topology's next sequence number (``Link.seq``),
        so one ``Link`` object belongs to one topology at a time.

        Raises:
            TopologyError: under the same conditions as :meth:`add_link`.
        """
        self._require_node(link.source)
        self._require_node(link.target)
        if link.target in self._adjacency[link.source]:
            raise TopologyError(f"link {link.key} already exists")
        self._check_degrees(link.source, link.target)
        self._append_link(link)
        return link

    def remove_link(self, u: Any, v: Any) -> None:
        """Remove the link between ``u`` and ``v``."""
        link = self.link(u, v)
        del self._links[link.key]
        del self._adjacency[u][v]
        del self._adjacency[v][u]
        self._bump_version()

    def _append_link(self, link: Link) -> None:
        link.seq = self._next_seq
        self._next_seq += 1
        self._links[link.key] = link
        self._adjacency[link.source][link.target] = link
        self._adjacency[link.target][link.source] = link
        self._bump_version()

    def _reinsert_link(self, link: Link) -> None:
        """Put a removed link back at its old place in link order (undo support).

        The move engine's undo re-inserts the *original* object, with its
        sequence number, so a remove → revert round trip leaves the compiled
        edge order and every order-dependent float sum unchanged.  Each
        endpoint row moves only its entries that sort after the link, O(degree)
        at worst; the link table is flagged and re-sorted on its next ordered
        read, so a rejected move costs no O(E) work.  The caller guarantees the
        link is absent and both endpoints present (strict LIFO undo).
        """
        self._links[link.key] = link
        self._links_unordered = True
        seq = link.seq
        for end, other in ((link.source, link.target), (link.target, link.source)):
            row = self._adjacency[end]
            later = []
            for neighbor in reversed(row):
                if row[neighbor].seq < seq:
                    break
                later.append(neighbor)
            row[other] = link
            for neighbor in reversed(later):
                row[neighbor] = row.pop(neighbor)
        self._bump_version()

    def _ordered_links(self) -> Dict[Tuple[Any, Any], Link]:
        """The link table in ascending sequence order (re-sorted if flagged)."""
        if self._links_unordered:
            self._links = {link.key: link for link in sorted(self._links.values(), key=_SEQ)}
            self._links_unordered = False
        return self._links

    def has_link(self, u: Any, v: Any) -> bool:
        """Return True if a link between ``u`` and ``v`` exists."""
        row = self._adjacency.get(u)
        return row is not None and v in row

    def link(self, u: Any, v: Any) -> Link:
        """Return the :class:`Link` between ``u`` and ``v``."""
        try:
            return self._adjacency[u][v]
        except KeyError:
            if u == v:
                raise TopologyError(f"self-loops are not allowed (node {u!r})") from None
            raise TopologyError(f"link {edge_key(u, v)} does not exist") from None

    def links(self) -> Iterator[Link]:
        """Iterate over link objects, in insertion order."""
        return iter(self._ordered_links().values())

    def link_keys(self) -> Iterator[Tuple[Any, Any]]:
        """Iterate over canonical link keys, in insertion order."""
        return iter(self._ordered_links().keys())

    @property
    def num_links(self) -> int:
        """Number of links."""
        return len(self._links)

    # ------------------------------------------------------------------
    # Neighborhood / degree
    # ------------------------------------------------------------------
    def neighbors(self, node_id: Any) -> List[Any]:
        """Return the neighbor identifiers of a node."""
        self._require_node(node_id)
        return list(self._adjacency[node_id].keys())

    def incident_links(self, node_id: Any) -> List[Link]:
        """Return the links incident to a node."""
        self._require_node(node_id)
        return list(self._adjacency[node_id].values())

    def degree(self, node_id: Any) -> int:
        """Return the degree of a node."""
        self._require_node(node_id)
        return len(self._adjacency[node_id])

    def degree_sequence(self) -> List[int]:
        """Return the degree of every node, in node-insertion order."""
        return [len(self._adjacency[n]) for n in self._nodes]

    # ------------------------------------------------------------------
    # Traversal / structure
    # ------------------------------------------------------------------
    def bfs_order(self, source: Any) -> List[Any]:
        """Return nodes reachable from ``source`` in BFS order."""
        self._require_node(source)
        from .compiled import bfs_indices

        graph = self.compiled()
        _, order = bfs_indices(graph, graph.index_of[source])
        ids = graph.ids
        return [ids[i] for i in order]

    def hop_distances(self, source: Any) -> Dict[Any, int]:
        """Return BFS hop distances from ``source`` to every reachable node."""
        self._require_node(source)
        from .compiled import bfs_indices

        graph = self.compiled()
        dist, order = bfs_indices(graph, graph.index_of[source])
        ids = graph.ids
        return {ids[i]: dist[i] for i in order}

    def connected_components(self) -> List[Set[Any]]:
        """Return the connected components as sets of node identifiers.

        Components are ordered by their first node in insertion order.
        """
        if not self._nodes:
            return []
        from .compiled import components_indices

        graph = self.compiled()
        labels, count = components_indices(graph)
        components: List[Set[Any]] = [set() for _ in range(count)]
        ids = graph.ids
        for i, label in enumerate(labels):
            components[label].add(ids[i])
        return components

    def is_connected(self) -> bool:
        """Return True if the topology is connected (and non-empty)."""
        if not self._nodes:
            return False
        return len(self.bfs_order(next(iter(self._nodes)))) == len(self._nodes)

    def is_tree(self) -> bool:
        """Return True if the topology is a connected acyclic graph."""
        if not self._nodes:
            return False
        return self.is_connected() and self.num_links == self.num_nodes - 1

    def subgraph(self, node_ids: Iterable[Any], name: Optional[str] = None) -> "Topology":
        """Return the induced subgraph on ``node_ids`` (copies annotations).

        Nodes and links are inserted in this topology's insertion order, so
        subgraphs (and :meth:`copy`) iterate deterministically regardless of
        ``PYTHONHASHSEED`` — float accumulations over a copy reproduce the
        original's summation order.
        """
        keep = set(node_ids)
        missing = keep - set(self._nodes)
        if missing:
            raise TopologyError(f"nodes not in topology: {sorted(map(repr, missing))}")
        sub = Topology(name=name or f"{self.name}-subgraph")
        for node_id in self._nodes:
            if node_id in keep:
                sub.add_node_object(self._copy_node(self._nodes[node_id]))
        for link in self._ordered_links().values():
            if link.source in keep and link.target in keep:
                sub.add_link_object(self._copy_link(link))
        return sub

    def copy(self, name: Optional[str] = None) -> "Topology":
        """Return a deep copy of the topology."""
        duplicate = self.subgraph(self._nodes.keys(), name=name or self.name)
        duplicate.metadata = dict(self.metadata)
        return duplicate

    # ------------------------------------------------------------------
    # Aggregate annotations
    # ------------------------------------------------------------------
    def total_install_cost(self) -> float:
        """Sum of installation costs over all links."""
        return sum(link.install_cost for link in self._ordered_links().values())

    def total_usage_cost(self) -> float:
        """Sum of usage costs (marginal cost times load) over all links."""
        return sum(link.usage_cost * link.load for link in self._ordered_links().values())

    def total_cost(self) -> float:
        """Total cost of the topology (installation plus usage)."""
        return self.total_install_cost() + self.total_usage_cost()

    def total_length(self) -> float:
        """Sum of link lengths (total installed fiber mileage)."""
        return sum(link.length for link in self._ordered_links().values())

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> List[str]:
        """Return a list of consistency problems (empty when valid).

        Checks adjacency/link-dictionary consistency, adjacency rows in link
        order, degree constraints, and capacity violations (load exceeding
        installed capacity).
        """
        problems: List[str] = []
        for key, link in self._ordered_links().items():
            if link.source not in self._nodes or link.target not in self._nodes:
                problems.append(f"link {key} references missing node")
            if link.capacity is not None and link.load > link.capacity + 1e-9:
                problems.append(
                    f"link {key} overloaded: load {link.load} > capacity {link.capacity}"
                )
        for node_id, neighbors in self._adjacency.items():
            limit = self._nodes[node_id].max_degree
            if limit is not None and len(neighbors) > limit:
                problems.append(
                    f"node {node_id!r} violates max_degree {limit} with degree {len(neighbors)}"
                )
            previous = -1
            for neighbor, link in neighbors.items():
                if self._links.get(link.key) is not link:
                    problems.append(
                        f"adjacency entry ({node_id!r}, {neighbor!r}) missing from link table"
                    )
                if node_id not in (link.source, link.target):
                    problems.append(f"link {link.key} stored under wrong node {node_id!r}")
                if link.seq <= previous:
                    problems.append(f"adjacency row of {node_id!r} out of link order")
                previous = link.seq
        return problems

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _require_node(self, node_id: Any) -> None:
        if node_id not in self._nodes:
            raise TopologyError(f"node {node_id!r} is not in the topology")

    def _check_degrees(self, u: Any, v: Any) -> None:
        for endpoint in (u, v):
            limit = self._nodes[endpoint].max_degree
            if limit is not None and len(self._adjacency[endpoint]) >= limit:
                raise TopologyError(
                    f"adding link {edge_key(u, v)} would exceed max_degree={limit} "
                    f"of node {endpoint!r}"
                )

    def _euclidean_length(self, u: Any, v: Any) -> float:
        loc_u = self._nodes[u].location
        loc_v = self._nodes[v].location
        if loc_u is None or loc_v is None:
            return 0.0
        return ((loc_u[0] - loc_v[0]) ** 2 + (loc_u[1] - loc_v[1]) ** 2) ** 0.5

    @staticmethod
    def _copy_node(node: Node) -> Node:
        return Node(
            node_id=node.node_id,
            role=node.role,
            location=node.location,
            capacity=node.capacity,
            demand=node.demand,
            max_degree=node.max_degree,
            city=node.city,
            attributes=dict(node.attributes),
        )

    @staticmethod
    def _copy_link(link: Link) -> Link:
        return Link(
            source=link.source,
            target=link.target,
            capacity=link.capacity,
            length=link.length,
            cable=link.cable,
            install_cost=link.install_cost,
            usage_cost=link.usage_cost,
            load=link.load,
            attributes=dict(link.attributes),
        )

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __contains__(self, node_id: Any) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:
        return (
            f"Topology(name={self.name!r}, nodes={self.num_nodes}, "
            f"links={self.num_links})"
        )


def union(topologies: Sequence[Topology], name: str = "union") -> Topology:
    """Return the disjoint-aware union of several topologies.

    Nodes appearing in multiple topologies are merged (first occurrence wins
    for annotations); duplicate links are kept once.
    """
    merged = Topology(name=name)
    for topo in topologies:
        for node in topo.nodes():
            if not merged.has_node(node.node_id):
                merged.add_node_object(Topology._copy_node(node))
        for link in topo.links():
            if not merged.has_link(link.source, link.target):
                merged.add_link_object(Topology._copy_link(link))
    return merged
