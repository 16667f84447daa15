"""Fully-dynamic connectivity with exact per-component service aggregates.

The move engine (:mod:`repro.optimization.incremental`) answers "what does
this change cost?" in O(Δ) for additions and deletions alike — ``AddLink``,
``RemoveLink``, both halves of ``Rewire``, each ``RemoveLinks`` cascade
batch — so its reachability structure must split components as cheaply as
it joins them, which a union-find cannot.  This module is that structure: a
Holm–de Lichtenberg–Thorup (HDT) level-structured spanning forest over
Euler-tour trees, giving amortized O(log² n) edge insertion/deletion,
O(log n) connectivity queries, O(log n) per-component aggregate queries, and
exact-undo tokens matching the move engine's LIFO rollback discipline.

Level structure
---------------

Every edge carries a level ``0 ≤ level(e) ≤ log₂ n``; ``F_i`` is a spanning
forest of the subgraph of edges with level ≥ i, and ``F_0 ⊇ F_1 ⊇ …`` spans
the whole graph.  New edges enter at level 0 — as a tree edge of ``F_0`` when
they join two components, as a level-0 non-tree edge otherwise.  Deleting a
non-tree edge touches only adjacency sets: O(log n).  Deleting a tree edge of
level ``l`` cuts it out of ``F_0 … F_l`` and then searches for a replacement
from level ``l`` down to 0: at each level the *smaller* of the two split
trees has its level-``i`` tree edges promoted to ``i+1`` (it can afford it:
the smaller side has ≤ n/2^{i+1} vertices, preserving the HDT size
invariant), and its level-``i`` non-tree edges are scanned — an edge whose
far endpoint lands in the other side reconnects the forest and is linked as a
tree edge into ``F_0 … F_i``; every other scanned edge is promoted to
``i+1``, paying for its own future scans.  Each edge is promoted at most
O(log n) times, which is where the amortized O(log² n) bound comes from.

Euler-tour trees
----------------

Each forest ``F_i`` stores its trees as Euler tours — the circular sequence
of directed arcs of a DFS traversal, plus one self-loop node per vertex —
kept in splay trees (deterministic, no RNG, amortized O(log n) per splay).
Linking two trees is a pair of rotations (reroots) and a concatenation; a cut
splits the sequence around the edge's two arcs.  Splay nodes carry subtree
sums, so the root of a tour answers whole-component questions in O(1) after
an O(log n) splay:

* vertex count, core count, customer demand and revenue (level 0 only) —
  the aggregates :class:`~repro.optimization.incremental.IncrementalState`
  prices service with;
* "some vertex below me has level-i non-tree edges" and "some arc below me is
  a level-i tree edge" — the subtree-OR flags the replacement search descends
  along, so each candidate costs O(log n) to find instead of a linear scan.

Exact aggregates and the undo contract
--------------------------------------

Per-vertex demand/revenue are stored as *exact fixed-point integers*: every
finite double is an integer multiple of 2⁻¹⁰⁷⁴, so ``value · 2¹⁰⁷⁴`` is an
exact Python int and subtree sums are associative, order- and
shape-independent.  Converting a component sum back (``n / 2¹⁰⁷⁴`` — int/int
true division is correctly rounded) therefore yields a float that depends
only on the *set* of vertices in the component, never on splay shape or
operation history.  This is what makes rollback bit-identical:
:meth:`DynamicConnectivity.undo` replays a mutation's primitive journal
(links, cuts, level changes, adjacency flips) in reverse, and although the
splay trees may land in a different *shape* than before the mutation, every
observable — connectivity, component size/core/demand/revenue — is restored
bit-exactly.  Tokens obey strict LIFO, mirroring the move engine's undo
stack.

The structure is pure Python and backend-independent: it behaves identically
under both ``REPRO_BACKEND`` settings, and
:func:`~repro.topology.compiled.components_indices` remains the canonical
oracle it is property-tested against.  ``KERNEL_COUNTERS`` records every ETT
link/cut as ``dynconn_tree_ops`` and every tree-edge deletion's replacement
hunt as ``dynconn_replacement_searches``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple

from .compiled import KERNEL_COUNTERS
from .link import edge_key

__all__ = ["DynamicConnectivity", "ComponentSummary"]


#: Scale factor of the exact fixed-point representation.  2^1074 is the
#: reciprocal of the smallest positive subnormal double, so every finite
#: float ``x`` satisfies ``x * _FIXED_ONE == exact int``.
_FIXED_ONE = 1 << 1074


def _to_fixed(value: float) -> int:
    """Exact fixed-point integer of a finite float (lossless)."""
    if value == 0.0:
        return 0
    p, q = value.as_integer_ratio()
    return p * (_FIXED_ONE // q)


def _from_fixed(value: int) -> float:
    """Correctly-rounded float of an exact fixed-point integer."""
    if value == 0:
        return 0.0
    return value / _FIXED_ONE


class ComponentSummary(NamedTuple):
    """Whole-component aggregates read off one level-0 Euler-tour root."""

    size: int
    has_core: bool
    demand: float
    revenue: float


class _EttNode:
    """One splay node of an Euler tour: a vertex self-loop or a directed arc.

    Vertex nodes carry the vertex payload (level 0 only) and the per-level
    ``nontree`` flag; arc nodes carry the per-level ``istree`` flag (true on
    the canonical arc of the one forest level equal to the edge's current
    level).  All nodes maintain subtree sums/ORs of everything, so any node
    can serve as an aggregation root after a splay.
    """

    __slots__ = (
        "parent",
        "left",
        "right",
        "vertex",
        "arc",
        "count",
        "core",
        "demand",
        "revenue",
        "nontree",
        "istree",
        "s_count",
        "s_core",
        "s_demand",
        "s_revenue",
        "s_nontree",
        "s_istree",
    )

    def __init__(self, vertex: Any = None, arc: Optional[Tuple[Any, Any]] = None):
        self.parent: Optional[_EttNode] = None
        self.left: Optional[_EttNode] = None
        self.right: Optional[_EttNode] = None
        self.vertex = vertex
        self.arc = arc
        self.count = 1 if vertex is not None else 0
        self.core = 0
        self.demand = 0
        self.revenue = 0
        self.nontree = False
        self.istree = False
        self.s_count = self.count
        self.s_core = 0
        self.s_demand = 0
        self.s_revenue = 0
        self.s_nontree = False
        self.s_istree = False


def _pull(x: _EttNode) -> None:
    count = x.count
    core = x.core
    demand = x.demand
    revenue = x.revenue
    nontree = x.nontree
    istree = x.istree
    left = x.left
    if left is not None:
        count += left.s_count
        core += left.s_core
        demand += left.s_demand
        revenue += left.s_revenue
        nontree = nontree or left.s_nontree
        istree = istree or left.s_istree
    right = x.right
    if right is not None:
        count += right.s_count
        core += right.s_core
        demand += right.s_demand
        revenue += right.s_revenue
        nontree = nontree or right.s_nontree
        istree = istree or right.s_istree
    x.s_count = count
    x.s_core = core
    x.s_demand = demand
    x.s_revenue = revenue
    x.s_nontree = nontree
    x.s_istree = istree


def _rotate(x: _EttNode) -> None:
    p = x.parent
    g = p.parent
    if p.left is x:
        p.left = x.right
        if x.right is not None:
            x.right.parent = p
        x.right = p
    else:
        p.right = x.left
        if x.left is not None:
            x.left.parent = p
        x.left = p
    p.parent = x
    x.parent = g
    if g is not None:
        if g.left is p:
            g.left = x
        elif g.right is p:
            g.right = x
    _pull(p)
    _pull(x)


def _splay(x: _EttNode) -> None:
    # Rotations permute shape, not membership, so subtree sums above the
    # rotation site never change — only the two rotated nodes re-pull.
    while x.parent is not None:
        p = x.parent
        g = p.parent
        if g is not None:
            if (g.left is p) == (p.left is x):
                _rotate(p)
            else:
                _rotate(x)
        _rotate(x)


def _bst_root(x: _EttNode) -> _EttNode:
    """Splay ``x`` to the root of its BST and return it."""
    _splay(x)
    return x


def _same_tree(a: _EttNode, b: _EttNode) -> bool:
    """Whether two splay nodes currently share a BST (amortized O(log n))."""
    if a is b:
        return True
    _splay(a)
    _splay(b)
    # b is now the root of its tree; if a landed under it they share a tree.
    return a.parent is not None


def _rightmost(x: _EttNode) -> _EttNode:
    while x.right is not None:
        x = x.right
    return x


def _join(a: Optional[_EttNode], b: Optional[_EttNode]) -> Optional[_EttNode]:
    """Concatenate two sequences (BST roots in, BST root out)."""
    if a is None:
        return b
    if b is None:
        return a
    r = _rightmost(a)
    _splay(r)
    r.right = b
    b.parent = r
    _pull(r)
    return r


def _split_before(x: _EttNode) -> Tuple[Optional[_EttNode], _EttNode]:
    """Split x's sequence into (strictly-before-x, x-and-after)."""
    _splay(x)
    left = x.left
    if left is not None:
        left.parent = None
        x.left = None
        _pull(x)
    return left, x


def _split_after(x: _EttNode) -> Tuple[_EttNode, Optional[_EttNode]]:
    """Split x's sequence into (up-to-and-including-x, strictly-after-x)."""
    _splay(x)
    right = x.right
    if right is not None:
        right.parent = None
        x.right = None
        _pull(x)
    return x, right


def _precedes(x: _EttNode, y: _EttNode) -> bool:
    """Whether x comes before y in their (shared) sequence."""
    _splay(x)
    _splay(y)
    # x is now a proper descendant of y; the child of y on the x→root path
    # tells which side of y it sits on.
    node = x
    prev = None
    while node is not y:
        prev = node
        node = node.parent
    return prev is y.left


class _Edge:
    """One logical undirected edge of the dynamic graph."""

    __slots__ = ("u", "v", "key", "level", "is_tree", "tree_arcs")

    def __init__(self, u: Any, v: Any, key: Tuple[Any, Any]):
        self.u = u
        self.v = v
        self.key = key
        self.level = 0
        self.is_tree = False
        # tree_arcs[i] = the edge's arc pair in forest F_i (i = 0..level when
        # is_tree); tree_arcs[i][0] is the canonical (u, v)-direction arc and
        # the only one that ever carries the ``istree`` flag.
        self.tree_arcs: List[Tuple[_EttNode, _EttNode]] = []


class DynamicConnectivity:
    """HDT fully-dynamic connectivity over splay Euler-tour trees.

    Vertices carry a service payload (``is_core``, customer ``demand`` and
    ``revenue``) aggregated per component.  :meth:`insert` and :meth:`delete`
    return opaque undo tokens; :meth:`undo` consumes them in strict LIFO
    order, restoring every observable bit-exactly.
    """

    def __init__(self) -> None:
        # _vnodes[i][v] -> the self-loop splay node of v in forest F_i
        # (eager at level 0 for every vertex, lazy at higher levels).
        self._vnodes: List[Dict[Any, _EttNode]] = [{}]
        # _nontree[i][v] -> ordered set (dict) of level-i non-tree edges at v.
        self._nontree: List[Dict[Any, Dict[Tuple[Any, Any], _Edge]]] = [{}]
        self._edges: Dict[Tuple[Any, Any], _Edge] = {}
        self._num_vertices = 0

    # -- vertices ------------------------------------------------------
    def __contains__(self, vertex: Any) -> bool:
        return vertex in self._vnodes[0]

    def __len__(self) -> int:
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def add_vertex(
        self,
        vertex: Any,
        *,
        is_core: bool = False,
        demand: float = 0.0,
        revenue: float = 0.0,
    ) -> None:
        """Add an isolated vertex with its service payload."""
        if vertex in self._vnodes[0]:
            raise ValueError(f"vertex {vertex!r} already present")
        node = _EttNode(vertex=vertex)
        node.core = 1 if is_core else 0
        node.demand = _to_fixed(demand)
        node.revenue = _to_fixed(revenue)
        _pull(node)
        self._vnodes[0][vertex] = node
        self._num_vertices += 1

    def remove_vertex(self, vertex: Any) -> None:
        """Remove a vertex that is currently isolated (the AddNode undo path)."""
        node = self._vnodes[0][vertex]
        _splay(node)
        if node.left is not None or node.right is not None:
            raise ValueError(f"vertex {vertex!r} still has incident tree edges")
        for level_adj in self._nontree:
            if level_adj.get(vertex):
                raise ValueError(f"vertex {vertex!r} still has non-tree edges")
        del self._vnodes[0][vertex]
        for level_map in self._vnodes[1:]:
            level_map.pop(vertex, None)
        self._num_vertices -= 1

    # -- queries -------------------------------------------------------
    def has_edge(self, u: Any, v: Any) -> bool:
        return edge_key(u, v) in self._edges

    def connected(self, u: Any, v: Any) -> bool:
        """Whether u and v are in one component (amortized O(log n))."""
        if u == v:
            return True
        return _same_tree(self._vnodes[0][u], self._vnodes[0][v])

    def summary(self, vertex: Any) -> ComponentSummary:
        """Aggregates of ``vertex``'s component (amortized O(log n))."""
        root = _bst_root(self._vnodes[0][vertex])
        return ComponentSummary(
            size=root.s_count,
            has_core=root.s_core > 0,
            demand=_from_fixed(root.s_demand),
            revenue=_from_fixed(root.s_revenue),
        )

    def has_core_component(self, vertex: Any) -> bool:
        """Whether ``vertex``'s component contains a core vertex."""
        return _bst_root(self._vnodes[0][vertex]).s_core > 0

    def component_size(self, vertex: Any) -> int:
        return _bst_root(self._vnodes[0][vertex]).s_count

    def components(self) -> Dict[Any, List[Any]]:
        """Materialize the partition: first-member → members, insertion order.

        O(V · depth); walks parent pointers without splaying so BST roots
        stay stable across the pass.  Intended for oracles, tests, and
        canonical-order initialization — not for the hot path.
        """
        groups: Dict[int, List[Any]] = {}
        order: List[int] = []
        for vertex, node in self._vnodes[0].items():
            while node.parent is not None:
                node = node.parent
            key = id(node)
            members = groups.get(key)
            if members is None:
                groups[key] = members = []
                order.append(key)
            members.append(vertex)
        return {groups[key][0]: groups[key] for key in order}

    # -- bulk construction ---------------------------------------------
    def build(
        self,
        vertices: Iterable[Tuple[Any, bool, float, float]],
        edges: Iterable[Tuple[Any, Any]],
    ) -> None:
        """Bulk-initialize from scratch in O(V + E).

        ``vertices`` yields ``(id, is_core, demand, revenue)``; ``edges``
        yields endpoint pairs.  A BFS spanning forest (vertices and adjacency
        in iteration order) becomes the level-0 Euler tours, built as
        perfectly balanced BSTs with bottom-up sums; every non-forest edge
        becomes a level-0 non-tree edge.  Equivalent to, but much cheaper
        than, incremental insertion — :class:`IncrementalState` builds
        through this path so engine construction stays linear, and resyncs
        annotation-only changes through :meth:`reset_payloads`.
        """
        if self._num_vertices or self._edges:
            raise ValueError("build() requires an empty structure")
        payload: Dict[Any, Tuple[int, int, int]] = {}
        for vertex, is_core, demand, revenue in vertices:
            if vertex in payload:
                raise ValueError(f"vertex {vertex!r} repeated in build()")
            payload[vertex] = (1 if is_core else 0, _to_fixed(demand), _to_fixed(revenue))
        adjacency: Dict[Any, List[Tuple[Any, _Edge]]] = {v: [] for v in payload}
        for u, v in edges:
            key = edge_key(u, v)
            if key in self._edges:
                raise ValueError(f"edge {key!r} repeated in build()")
            if u not in payload or v not in payload:
                raise ValueError(f"edge {key!r} references an unknown vertex")
            self._edges[key] = edge = _Edge(u, v, key)
            adjacency[u].append((v, edge))
            adjacency[v].append((u, edge))

        # Create every vertex node up front, in payload iteration order: the
        # vmap's insertion order is the canonical member order components()
        # reports, and it must not depend on BFS tour shape.
        vmap = self._vnodes[0]
        for vertex, (core, demand, revenue) in payload.items():
            node = _EttNode(vertex=vertex)
            node.core, node.demand, node.revenue = core, demand, revenue
            _pull(node)
            vmap[vertex] = node

        visited: Dict[Any, bool] = {}
        tree_edges = 0
        for start in payload:
            if start in visited:
                continue
            visited[start] = True
            # BFS spanning tree; children lists follow adjacency order.
            children: Dict[Any, List[Tuple[Any, _Edge]]] = {start: []}
            frontier = [start]
            while frontier:
                next_frontier = []
                for vertex in frontier:
                    for other, edge in adjacency[vertex]:
                        if other in visited:
                            continue
                        visited[other] = True
                        children[other] = []
                        children[vertex].append((other, edge))
                        next_frontier.append(other)
                frontier = next_frontier
            # Euler tour of the component as a flat node list (iterative DFS:
            # down-arc, child subtree, up-arc).
            tour: List[_EttNode] = [vmap[start]]
            stack: List[Tuple[Any, Optional[_EttNode], int]] = [(start, None, 0)]
            while stack:
                vertex, up_arc, child_index = stack.pop()
                kids = children[vertex]
                if child_index < len(kids):
                    stack.append((vertex, up_arc, child_index + 1))
                    child, edge = kids[child_index]
                    edge.is_tree = True
                    down = _EttNode(arc=(vertex, child))
                    up = _EttNode(arc=(child, vertex))
                    pair = (down, up) if (vertex, child) == (edge.u, edge.v) else (up, down)
                    pair[0].istree = True  # s_istree lands in the balanced pull
                    edge.tree_arcs.append(pair)
                    tour.append(down)
                    tour.append(vmap[child])
                    stack.append((child, up, 0))
                    tree_edges += 1
                elif up_arc is not None:
                    tour.append(up_arc)
            _build_balanced(tour, 0, len(tour) - 1, None)
        for edge in self._edges.values():
            if not edge.is_tree:
                self._nontree_add(0, edge)
        self._num_vertices = len(payload)
        KERNEL_COUNTERS.dynconn_tree_ops += tree_edges

    def reset_payloads(self, vertices: Iterable[Tuple[Any, bool, float, float]]) -> None:
        """Re-set every vertex payload in place and re-sum the level-0 tours.

        ``vertices`` yields ``(id, is_core, demand, revenue)`` once for every
        present vertex, as for :meth:`build`.  Trees, levels and non-tree
        edges stay; one O(V + E) bottom-up pass re-pulls every level-0 splay
        node.  Fixed-point sums do not depend on tree shape, so every
        component summary equals a fresh :meth:`build`'s bit for bit.
        """
        vmap = self._vnodes[0]
        count = 0
        for vertex, is_core, demand, revenue in vertices:
            node = vmap.get(vertex)
            if node is None:
                raise ValueError(f"vertex {vertex!r} is not present")
            node.core = 1 if is_core else 0
            node.demand = _to_fixed(demand)
            node.revenue = _to_fixed(revenue)
            count += 1
        if count != self._num_vertices:
            raise ValueError("reset_payloads() must cover every vertex once")
        # Pre-order from each splay root lists every node after its parent,
        # so the reversed order pulls children first.
        stack = [node for node in vmap.values() if node.parent is None]
        for edge in self._edges.values():
            if edge.is_tree:
                stack.extend(arc for arc in edge.tree_arcs[0] if arc.parent is None)
        order: List[_EttNode] = []
        while stack:
            node = stack.pop()
            order.append(node)
            if node.left is not None:
                stack.append(node.left)
            if node.right is not None:
                stack.append(node.right)
        for node in reversed(order):
            _pull(node)

    # -- mutation ------------------------------------------------------
    def insert(self, u: Any, v: Any) -> Tuple:
        """Insert edge (u, v) at level 0; returns an undo token.

        Amortized O(log n): one ETT link when the edge joins two components,
        one adjacency append otherwise.
        """
        key = edge_key(u, v)
        if key in self._edges:
            raise ValueError(f"edge {key!r} already present")
        if u not in self._vnodes[0] or v not in self._vnodes[0]:
            raise ValueError(f"edge {key!r} references an unknown vertex")
        edge = _Edge(u, v, key)
        self._edges[key] = edge
        if self.connected(u, v):
            self._nontree_add(0, edge)
            return ("insert", edge, False)
        edge.is_tree = True
        self._ett_link(0, edge)
        return ("insert", edge, True)

    def delete(self, u: Any, v: Any) -> Tuple:
        """Delete edge (u, v); returns an undo token.

        A non-tree edge is an O(log n) adjacency removal.  A tree edge of
        level ``l`` is cut from ``F_0 … F_l`` and followed by the HDT
        replacement search; every primitive step lands in the token's journal
        so :meth:`undo` can replay exact inverses.
        """
        key = edge_key(u, v)
        edge = self._edges.get(key)
        if edge is None:
            raise ValueError(f"edge {key!r} not present")
        del self._edges[key]
        if not edge.is_tree:
            self._nontree_remove(edge.level, edge)
            return ("delete_nontree", edge)
        journal: List[Tuple] = []
        level = edge.level
        for i in range(level, -1, -1):
            self._ett_cut(i, edge)
            journal.append(("cut", edge, i))
        edge.is_tree = False
        KERNEL_COUNTERS.dynconn_replacement_searches += 1
        for i in range(level, -1, -1):
            if self._search_replacement(i, edge.u, edge.v, journal) is not None:
                break
        return ("delete_tree", edge, level, journal)

    def undo(self, token: Tuple) -> None:
        """Replay a mutation's primitive journal in reverse (strict LIFO)."""
        kind = token[0]
        if kind == "insert":
            _, edge, was_tree = token
            if was_tree:
                self._ett_cut(0, edge)
                edge.is_tree = False
            else:
                self._nontree_remove(0, edge)
            del self._edges[edge.key]
        elif kind == "delete_nontree":
            _, edge = token
            self._nontree_add(edge.level, edge)
            self._edges[edge.key] = edge
        elif kind == "delete_tree":
            _, edge, level, journal = token
            for op in reversed(journal):
                name = op[0]
                if name == "cut":
                    _, cut_edge, i = op
                    cut_edge.is_tree = True
                    self._ett_link(i, cut_edge)
                elif name == "promote_tree":
                    _, tree_edge, i = op
                    self._ett_cut(i + 1, tree_edge)
                    tree_edge.level = i
                    self._set_istree(tree_edge.tree_arcs[i][0], True)
                elif name == "promote_nontree":
                    _, nt_edge, i = op
                    self._nontree_remove(i + 1, nt_edge)
                    nt_edge.level = i
                    self._nontree_add(i, nt_edge)
                elif name == "replace":
                    _, rep_edge, i = op
                    for j in range(i, -1, -1):
                        self._ett_cut(j, rep_edge)
                    rep_edge.is_tree = False
                    self._nontree_add(i, rep_edge)
                else:  # pragma: no cover - defensive
                    raise AssertionError(f"unknown journal op {name!r}")
            self._edges[edge.key] = edge
        else:  # pragma: no cover - defensive
            raise AssertionError(f"unknown undo token {kind!r}")

    # -- HDT internals -------------------------------------------------
    def _level_vnode(self, level: int, vertex: Any) -> _EttNode:
        """The self-loop node of ``vertex`` in F_level (lazily created)."""
        self._ensure_level(level)
        vmap = self._vnodes[level]
        node = vmap.get(vertex)
        if node is None:
            node = _EttNode(vertex=vertex)
            vmap[vertex] = node
        return node

    def _ensure_level(self, level: int) -> None:
        while len(self._vnodes) <= level:
            self._vnodes.append({})
            self._nontree.append({})

    def _ett_link(self, level: int, edge: _Edge) -> None:
        """Link ``edge`` into forest F_level (creates its arc pair there)."""
        KERNEL_COUNTERS.dynconn_tree_ops += 1
        if len(edge.tree_arcs) != level:
            raise AssertionError(
                f"edge {edge.key!r}: linking level {level} with arcs present "
                f"for {len(edge.tree_arcs)} levels"
            )
        u, v = edge.u, edge.v
        nu = self._level_vnode(level, u)
        nv = self._level_vnode(level, v)
        arc_uv = _EttNode(arc=(u, v))
        arc_vu = _EttNode(arc=(v, u))
        if level == edge.level:
            arc_uv.istree = True
            _pull(arc_uv)
        edge.tree_arcs.append((arc_uv, arc_vu))
        tour_u = self._ett_reroot(nu)
        tour_v = self._ett_reroot(nv)
        _join(_join(_join(tour_u, arc_uv), tour_v), arc_vu)

    def _ett_cut(self, level: int, edge: _Edge) -> None:
        """Cut ``edge`` out of forest F_level (frees its arc pair there)."""
        KERNEL_COUNTERS.dynconn_tree_ops += 1
        if len(edge.tree_arcs) != level + 1:
            raise AssertionError(
                f"edge {edge.key!r}: cutting level {level} with arcs present "
                f"for {len(edge.tree_arcs)} levels"
            )
        arc_a, arc_b = edge.tree_arcs.pop()
        if not _precedes(arc_a, arc_b):
            arc_a, arc_b = arc_b, arc_a
        # Sequence = L · arc_a · M · arc_b · R.  M is one side's tour, L·R
        # (rejoined) the other's; the two arc nodes are discarded.
        before_a, _ = _split_before(arc_a)
        _split_after(arc_a)
        _split_before(arc_b)
        _, after_b = _split_after(arc_b)
        _join(before_a, after_b)

    def _ett_reroot(self, vnode: _EttNode) -> _EttNode:
        """Rotate the circular tour to start at ``vnode``; returns the root."""
        before, rest = _split_before(vnode)
        return _join(rest, before)

    def _set_istree(self, arc: _EttNode, value: bool) -> None:
        _splay(arc)
        arc.istree = value
        _pull(arc)

    def _set_nontree_flag(self, level: int, vertex: Any) -> None:
        node = self._level_vnode(level, vertex)
        value = bool(self._nontree[level].get(vertex))
        if node.nontree != value:
            _splay(node)
            node.nontree = value
            _pull(node)

    def _nontree_add(self, level: int, edge: _Edge) -> None:
        self._ensure_level(level)
        adj = self._nontree[level]
        for end in (edge.u, edge.v):
            bucket = adj.get(end)
            if bucket is None:
                adj[end] = bucket = {}
            bucket[edge.key] = edge
            self._set_nontree_flag(level, end)

    def _nontree_remove(self, level: int, edge: _Edge) -> None:
        adj = self._nontree[level]
        for end in (edge.u, edge.v):
            del adj[end][edge.key]
            self._set_nontree_flag(level, end)

    def _search_replacement(
        self, level: int, u: Any, v: Any, journal: List[Tuple]
    ) -> Optional[_Edge]:
        """One HDT level pass after cutting a tree edge between u and v.

        Promotes the smaller side's level-``level`` tree edges to
        ``level+1``, then scans its level-``level`` non-tree edges: the first
        one reaching the other side reconnects the forest (linked into
        ``F_0 … F_level``) and is returned; the rest are promoted.  Every
        primitive step is appended to ``journal`` for exact undo.
        """
        node_u = self._vnodes[level].get(u)
        node_v = self._vnodes[level].get(v)
        size_u = _bst_root(node_u).s_count if node_u is not None else 1
        size_v = _bst_root(node_v).s_count if node_v is not None else 1
        if size_v > size_u:
            v, node_v = u, node_u
        if node_v is None:
            # The smaller side is a lone vertex with no presence in F_level:
            # it has no level-`level` edges of either kind to offer.
            return None
        # Promote the smaller side's level-`level` tree edges: the side has
        # at most n/2^{level+1} vertices, so the HDT size invariant allows
        # them at level+1, and future searches at this level never rescan
        # them.  This also makes the side connected in F_{level+1}, which is
        # what lets its non-tree edges promote safely below.
        root = _bst_root(node_v)
        while root.s_istree:
            arc = root
            while not arc.istree:
                left = arc.left
                if left is not None and left.s_istree:
                    arc = left
                else:
                    arc = arc.right
            tree_edge = self._edges[edge_key(*arc.arc)]
            self._set_istree(tree_edge.tree_arcs[level][0], False)
            tree_edge.level = level + 1
            self._ett_link(level + 1, tree_edge)
            journal.append(("promote_tree", tree_edge, level))
            root = _bst_root(node_v)
        # Scan the side's level-`level` non-tree edges.
        while root.s_nontree:
            vertex_node = root
            while not vertex_node.nontree:
                left = vertex_node.left
                if left is not None and left.s_nontree:
                    vertex_node = left
                else:
                    vertex_node = vertex_node.right
            vertex = vertex_node.vertex
            bucket = self._nontree[level].get(vertex, {})
            for key in list(bucket):
                nt_edge = bucket.get(key)
                if nt_edge is None:
                    continue
                other = nt_edge.v if nt_edge.u == vertex else nt_edge.u
                other_node = self._vnodes[level].get(other)
                if other_node is not None and _same_tree(
                    other_node, self._vnodes[level][vertex]
                ):
                    # Both endpoints inside the shrunken side: this edge can
                    # never reconnect at this level again — promote it.
                    self._nontree_remove(level, nt_edge)
                    nt_edge.level = level + 1
                    self._nontree_add(level + 1, nt_edge)
                    journal.append(("promote_nontree", nt_edge, level))
                else:
                    # Far endpoint is across the split: reconnect.  The edge
                    # keeps its level and becomes a tree edge of F_0 … F_level.
                    self._nontree_remove(level, nt_edge)
                    nt_edge.is_tree = True
                    for j in range(0, level + 1):
                        self._ett_link(j, nt_edge)
                    journal.append(("replace", nt_edge, level))
                    return nt_edge
            root = _bst_root(node_v)
        return None


def _build_balanced(
    tour: List[_EttNode], lo: int, hi: int, parent: Optional[_EttNode]
) -> Optional[_EttNode]:
    """Perfectly balanced BST over ``tour[lo..hi]`` with bottom-up pulls."""
    if lo > hi:
        return None
    mid = (lo + hi) // 2
    node = tour[mid]
    node.parent = parent
    node.left = _build_balanced(tour, lo, mid - 1, node)
    node.right = _build_balanced(tour, mid + 1, hi, node)
    _pull(node)
    return node
