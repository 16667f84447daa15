"""Hierarchical routing: overlay shortcuts over the ISP hierarchy.

The paper's Section 2.2 decomposition of an ISP into core / backbone /
distribution / access / customer levels is exactly the structure a router
exploits: traffic goes *up* to the nearest gateway, *across* the small core,
and back *down*.  The flat engine (:mod:`repro.routing.engine`) spends one
full-graph shortest-path search per unique demand source; a full gravity
matrix over thousands of cities at n=10^5..10^6 does not fit that budget.
This module answers the same queries from a precomputed **overlay**:

1. **Partition.**  Nodes whose hierarchy level is ``core`` or ``backbone``
   (:func:`~repro.topology.hierarchy.compiled_level_ranks`; for unannotated
   graphs a BFS-from-elected-hubs fallback assigns levels first) form the
   *core cell*.  The remaining graph splits into *regions* — connected
   components after the core cell is removed — so every inter-cell edge has
   a core endpoint, and each region touches the core only through its
   **border** (gateway) nodes.
2. **Region tables.**  One batched multi-source sweep per region (all of the
   region's borders as sources, restricted to the region) yields exact
   border-to-node distance tables plus the predecessor trees used to scatter
   flow.  Restriction is exact: a shortest path's maximal within-region
   segments start and end at that region's borders (or at the endpoints).
3. **Core mesh.**  The overlay graph contains every core node and every
   region border; its edges are the real edges with a core endpoint plus,
   per region, border-to-border *shortcuts* weighted by the restricted
   tables.  All-pairs distances/predecessors over this small graph form the
   border-to-border mesh.
4. **Queries as joins.**  ``d(s, t) = min over (a, b)`` of
   ``up(s→a) + mesh(a→b) + down(b→t)`` where ``a``/``b`` range over the
   border tables of the endpoint regions (a core endpoint is its own access
   point at distance 0).  Pairs inside one region additionally compare a
   lazily computed region-restricted search, which wins ties — a same-region
   pair whose true path never leaves the region must not be detoured.
   Loads scatter in three vectorizable phases: per-pair volumes accumulate
   onto border predecessor trees (up/down), mesh paths are walked once per
   *unique* border pair with the aggregated volume (across), and shortcut
   steps turn back into region-tree flow.

Equivalence contract (mirrors the PR 6 backend-parity contract): distances
and loads are **bit-identical to flat routing on tie-free integral weights
with integral volumes**; with general float weights distances agree to
1e-9-level accumulation tolerance (overlay joins associate sums differently
than one flat Dijkstra), and on tie-free instances the routed paths — hence
the loaded edges — are identical, so integral volumes keep loads
bit-identical even under float (e.g. Euclidean) weights.  Under *tied*
shortest paths each method deterministically loads one of the tied optima,
exactly like the flat numpy-vs-python contract.  ECMP mode is not supported
hierarchically; ``route_demand(..., method="auto")`` falls back to flat.

The overlay is built lazily and cached on the compiled snapshot keyed by
weight name and backend (the same invalidation contract as
``CompiledGraph.scipy_csr``): any structural mutation bumps
``Topology.version``, the next ``topology.compiled()`` produces a fresh
snapshot, and the stale overlay dies with the old one.  Counters:
``KERNEL_COUNTERS.hier_overlay_builds`` (one per construction),
``hier_region_sweeps`` (one per restricted sweep source), and
``hier_table_joins`` (one per demand pair answered through the tables).

Backends: the ``"numpy"`` path batches region sweeps through
``scipy.sparse.csgraph`` over packed block-diagonal sub-matrices and
vectorizes the pair joins; the ``"python"`` path (the no-scipy reference)
runs the same construction on heap Dijkstras and plain loops.  Distances
are backend-identical (same sums along the same unique paths).
"""

from __future__ import annotations

import heapq
from array import array
from math import inf, isqrt
from typing import Any, Dict, List, Optional, Tuple

from ..topology.compiled import (
    BATCH_CHUNK_CELLS,
    CompiledGraph,
    KERNEL_COUNTERS,
    _column_values,
    have_numpy_backend,
    multi_source_bfs_indices,
    resolve_backend,
)
from ..topology.hierarchy import LEVEL_RANKS
from ..topology.hierarchy import compiled_level_ranks as _compiled_level_ranks
from .engine import CompiledDemand, FlowResult
from .options import RoutingOptions

if have_numpy_backend():
    import numpy as _np
    from scipy.sparse import csr_matrix as _csr_matrix
    from scipy.sparse.csgraph import connected_components as _scipy_components
    from scipy.sparse.csgraph import dijkstra as _scipy_dijkstra
else:  # pragma: no cover - exercised by the no-scipy CI leg
    _np = None
    _csr_matrix = None
    _scipy_components = None
    _scipy_dijkstra = None

__all__ = [
    "AUTO_MESH_CELLS",
    "AUTO_MIN_NODES",
    "AUTO_MIN_UNIQUE_SOURCES",
    "HierarchicalOverlay",
    "OverlayTooLarge",
    "build_overlay",
    "overlay_for",
]

#: Levels at or above this rank form the core cell ("core" and "backbone").
CORE_CUT_RANK = LEVEL_RANKS["backbone"]

#: ``route_demand(method="auto")`` considers hierarchical routing only for
#: demand with at least this many unique sources on graphs of at least
#: ``AUTO_MIN_NODES`` nodes — below that, flat batched routing wins.
AUTO_MIN_UNIQUE_SOURCES = 256
AUTO_MIN_NODES = 20_000

#: Mesh cell budget (overlay_nodes**2) for the *automatic* method choice;
#: an overlay whose mesh would exceed it raises :class:`OverlayTooLarge` and
#: auto falls back to flat.  Explicit ``method="hierarchical"`` requests pass
#: no cap and always build.
AUTO_MESH_CELLS = 32_000_000

#: Cell budget per packed region-sweep dispatch: regions are greedily packed
#: into block-diagonal groups so one scipy call covers many small regions
#: without the (sum borders) x (sum nodes) dense output exploding.
GROUP_SWEEP_CELLS = 4_000_000

#: Cell budget (pairs x max_borders**2) per vectorized join chunk.
JOIN_CHUNK_CELLS = 4_000_000


class OverlayTooLarge(RuntimeError):
    """Raised when an overlay mesh would exceed the caller's cell budget."""


class RegionTables:
    """Exact restricted distance/predecessor tables for one region.

    Attributes:
        nodes: Global node indices of the region, ascending.
        borders: Overlay id per border, row-aligned with the tables.
        border_nodes: Global node index per border row.
        dist: Per border row, restricted distance to every region node
            (local order).  Regions are connected, so every entry is finite.
        pred: Per border row, local predecessor index toward the border
            (-1 at the border itself).
        pred_edge: Per border row, global edge id of the predecessor edge.
        order: Per border row, local indices farthest-first — a valid
            bottom-up scatter order because weights are strictly positive.
    """

    __slots__ = ("nodes", "borders", "border_nodes", "dist", "pred", "pred_edge", "order")

    def __init__(self, nodes: List[int], border_nodes: List[int]) -> None:
        self.nodes = nodes
        self.borders: List[int] = []
        self.border_nodes = border_nodes
        self.dist: List[List[float]] = []
        self.pred: List[List[int]] = []
        self.pred_edge: List[List[int]] = []
        self.order: List[List[int]] = []


class HierarchicalOverlay:
    """The precomputed up/across/down routing structure for one snapshot.

    Holds the cell partition, per-region tables (:class:`RegionTables`), the
    overlay node set (core nodes + region borders), the border-to-border
    mesh (all-pairs distances and predecessors over the overlay graph), and
    the realization map that turns overlay steps back into real edges or
    region-tree flows.
    """

    __slots__ = (
        "graph",
        "weight_name",
        "backend",
        "weights",
        "cell_of",
        "num_regions",
        "regions",
        "region_local",
        "ov_nodes",
        "ov_of_node",
        "ov_region",
        "ov_row",
        "mesh_dist",
        "mesh_pred",
        "real_step",
        "elected",
        "_weight_values",
        "_adjacency_rows",
        "_punctured",
    )

    def __init__(self, graph: CompiledGraph, weight_name: str, backend: str, weights: Any) -> None:
        self.graph = graph
        self.weight_name = weight_name
        self.backend = backend
        self.weights = weights
        self.cell_of: List[int] = []
        self.num_regions = 0
        self.regions: List[Optional[RegionTables]] = []
        self.region_local: List[int] = []
        self.ov_nodes: List[int] = []
        self.ov_of_node: List[int] = []
        self.ov_region: List[int] = []
        self.ov_row: List[int] = []
        self.mesh_dist: Any = None
        self.mesh_pred: Any = None
        self.real_step: Dict[Tuple[int, int], int] = {}
        self.elected = False
        self._weight_values: Optional[List[float]] = None
        self._adjacency_rows = None
        self._punctured = None

    # ------------------------------------------------------------------
    def weight_values(self) -> List[float]:
        """The weight column as plain floats (cached for restricted searches)."""
        if self._weight_values is None:
            self._weight_values = _column_values(self.weights)
        return self._weight_values

    def access(self, node: int) -> List[Tuple[int, float]]:
        """``(overlay_id, distance)`` access points of a node.

        A core-cell node is its own access point at distance 0; a region
        node reaches the overlay through its region's border tables.  A
        region with no borders (a component disconnected from the core)
        yields an empty list — such pairs route only within their region.
        """
        cell = self.cell_of[node]
        if cell == 0:
            return [(self.ov_of_node[node], 0.0)]
        tables = self.regions[cell]
        local = self.region_local[node]
        return [
            (tables.borders[row], tables.dist[row][local]) for row in range(len(tables.borders))
        ]

    def stats(self) -> Dict[str, Any]:
        """Shape summary for reports: cells, borders, mesh size."""
        core_count = sum(1 for cell in self.cell_of if cell == 0)
        largest = 0
        for tables in self.regions[1:]:
            if tables is not None and len(tables.nodes) > largest:
                largest = len(tables.nodes)
        return {
            "core_nodes": core_count,
            "regions": self.num_regions,
            "largest_region": largest,
            "overlay_nodes": len(self.ov_nodes),
            "border_nodes": len(self.ov_nodes) - core_count,
            "elected_core": self.elected,
        }


# ----------------------------------------------------------------------
# Partition
# ----------------------------------------------------------------------
def _elect_core_mask(graph: CompiledGraph) -> List[bool]:
    """BFS-from-hubs fallback for graphs without core/backbone annotations.

    Elects the top-degree nodes (ties to the lower index) as cores and marks
    every node within :data:`CORE_CUT_RANK` hops of one, reading hop
    distance d from the nearest hub as level ``LEVEL_NAMES[d]``.
    """
    n = graph.num_nodes
    degrees = list(graph.degrees())
    k = max(1, isqrt(n) // 8)
    hubs = heapq.nsmallest(k, range(n), key=lambda i: (-degrees[i], i))
    dist = multi_source_bfs_indices(graph, hubs)
    return [0 <= d <= CORE_CUT_RANK for d in dist]


def _partition_cells(
    graph: CompiledGraph, core: List[bool], backend: str
) -> Tuple[List[int], int, List[List[int]]]:
    """Cell id per node (0 = core cell) plus per-region ascending node lists.

    Regions are the connected components of the graph minus the core cell,
    numbered 1..R in order of their first (lowest-index) node.
    """
    n = graph.num_nodes
    if backend == "numpy":
        core_np = _np.asarray(core, dtype=bool)
        indptr = _np.asarray(graph.indptr, dtype=_np.int64)
        heads = _np.asarray(graph.indices, dtype=_np.int64)
        tails = _np.repeat(_np.arange(n, dtype=_np.int64), _np.diff(indptr))
        keep = ~core_np[tails] & ~core_np[heads]
        counts = _np.bincount(tails[keep], minlength=n)
        pindptr = _np.zeros(n + 1, dtype=_np.int64)
        _np.cumsum(counts, out=pindptr[1:])
        punctured = _csr_matrix(
            (_np.ones(int(keep.sum()), dtype=_np.int8), heads[keep], pindptr),
            shape=(n, n),
        )
        ncomp, labels = _scipy_components(punctured, directed=False)
        idx = _np.nonzero(~core_np)[0]
        region_labels = labels[idx]
        uniq, first = _np.unique(region_labels, return_index=True)
        rank = _np.zeros(ncomp, dtype=_np.int64)
        rank[uniq[_np.argsort(first, kind="stable")]] = _np.arange(1, len(uniq) + 1)
        cell = _np.zeros(n, dtype=_np.int64)
        cell[idx] = rank[region_labels]
        cell_of = cell.tolist()
        num_regions = len(uniq)
        region_nodes: List[List[int]] = [[] for _ in range(num_regions + 1)]
        grouped = idx[_np.argsort(cell[idx], kind="stable")]
        # Sorted cell ids: region r occupies [boundaries[r-1], boundaries[r]);
        # the stable sort keeps each slice node-index-ascending.
        boundaries = _np.searchsorted(cell[grouped], _np.arange(1, num_regions + 2))
        for r in range(1, num_regions + 1):
            region_nodes[r] = grouped[int(boundaries[r - 1]) : int(boundaries[r])].tolist()
        return cell_of, num_regions, region_nodes
    rows = graph.adjacency_rows()
    cell_of = [0] * n
    region_nodes = [[]]
    num_regions = 0
    for start_node in range(n):
        if core[start_node] or cell_of[start_node] != 0:
            continue
        num_regions += 1
        cell_of[start_node] = num_regions
        component = [start_node]
        head = 0
        while head < len(component):
            u = component[head]
            head += 1
            for v, _ in rows[u]:
                if not core[v] and cell_of[v] == 0:
                    cell_of[v] = num_regions
                    component.append(v)
        component.sort()
        region_nodes.append(component)
    return cell_of, num_regions, region_nodes


# ----------------------------------------------------------------------
# Region sweeps
# ----------------------------------------------------------------------
def _trivial_tables(tables: RegionTables) -> None:
    """Fill the tables of a single-node region without a sweep."""
    for _ in tables.border_nodes:
        tables.dist.append([0.0])
        tables.pred.append([-1])
        tables.pred_edge.append([-1])
        tables.order.append([0])


def _sweep_regions_python(overlay: HierarchicalOverlay, swept: List[RegionTables]) -> None:
    """Restricted heap-Dijkstra sweeps, one per (region, border) pair."""
    cell_of = overlay.cell_of
    for tables in swept:
        size = len(tables.nodes)
        cell = cell_of[tables.nodes[0]]
        for border in tables.border_nodes:
            dist, pred, pred_edge = _restricted_search(overlay, cell, border)
            tables.dist.append(dist)
            tables.pred.append(pred)
            tables.pred_edge.append(pred_edge)
            tables.order.append(sorted(range(size), key=lambda i: -dist[i]))


def _punctured_matrix(overlay: HierarchicalOverlay):
    """Weighted CSR of the graph minus core-incident edges (cached).

    The punctured graph is block diagonal by region — the substrate for
    every batched restricted sweep (build-time border tables and query-time
    same-region refinements alike).
    """
    matrix = overlay._punctured
    if matrix is None:
        graph = overlay.graph
        n = graph.num_nodes
        core_cells = _np.asarray(overlay.cell_of, dtype=_np.int64) == 0
        indptr = _np.asarray(graph.indptr, dtype=_np.int64)
        heads = _np.asarray(graph.indices, dtype=_np.int64)
        tails = _np.repeat(_np.arange(n, dtype=_np.int64), _np.diff(indptr))
        half_edges = _np.asarray(graph.half_edge_ids)
        weights = _np.asarray(overlay.weights, dtype=_np.float64)
        keep = ~core_cells[tails] & ~core_cells[heads]
        counts = _np.bincount(tails[keep], minlength=n)
        pindptr = _np.zeros(n + 1, dtype=_np.int64)
        _np.cumsum(counts, out=pindptr[1:])
        matrix = _csr_matrix((weights[half_edges[keep]], heads[keep], pindptr), shape=(n, n))
        overlay._punctured = matrix
    return matrix


def _grouped_region_dijkstra(overlay, jobs, consume, with_pred_edges=True) -> None:
    """Packed block-diagonal ``csgraph`` sweeps over groups of regions.

    ``jobs`` is a list of ``(tables, sources_global)`` — restricted searches
    to run inside each region.  The punctured graph is block diagonal by
    region, so one batched dijkstra over a group's stacked rows serves every
    region in the group at once; groups are packed greedily to
    :data:`GROUP_SWEEP_CELLS`.  For each job source, in job order,
    ``consume(tables, source, dist, pred_local, pred_edge)`` receives the
    region-local float/int64 rows; ``with_pred_edges=False`` skips the
    predecessor-edge resolution (``pred_edge=None``) for callers that only
    walk a few chains and resolve edges themselves.
    """
    graph = overlay.graph
    punctured = _punctured_matrix(overlay)
    local_scratch = _np.zeros(graph.num_nodes, dtype=_np.int64)

    groups: List[List[Tuple[RegionTables, List[int]]]] = []
    current: List[Tuple[RegionTables, List[int]]] = []
    current_nodes = 0
    current_sources = 0
    for tables, job_sources in sorted(jobs, key=lambda job: -len(job[0].nodes)):
        size = len(tables.nodes)
        added = len(job_sources)
        if current and (current_sources + added) * (current_nodes + size) > GROUP_SWEEP_CELLS:
            groups.append(current)
            current, current_nodes, current_sources = [], 0, 0
        current.append((tables, job_sources))
        current_nodes += size
        current_sources += added
    if current:
        groups.append(current)

    for group in groups:
        nodes_g = _np.fromiter(
            (node for tables, _ in group for node in tables.nodes),
            dtype=_np.int64,
        )
        size_g = len(nodes_g)
        local_scratch[nodes_g] = _np.arange(size_g, dtype=_np.int64)
        row_block = punctured[nodes_g]
        sub = _csr_matrix(
            (row_block.data, local_scratch[row_block.indices], row_block.indptr),
            shape=(size_g, size_g),
        )
        sources = _np.fromiter(
            (local_scratch[source] for tables, job_sources in group for source in job_sources),
            dtype=_np.int64,
        )
        KERNEL_COUNTERS.hier_region_sweeps += len(sources)
        dist_rows: List[Any] = []
        pred_rows: List[Any] = []
        chunk = max(1, BATCH_CHUNK_CELLS // max(1, size_g))
        for start in range(0, len(sources), chunk):
            batch = sources[start : start + chunk]
            KERNEL_COUNTERS.batch_dijkstra_calls += 1
            KERNEL_COUNTERS.batch_sources_total += len(batch)
            dist_chunk, pred_chunk = _scipy_dijkstra(
                sub, directed=False, indices=batch, return_predecessors=True
            )
            if dist_chunk.ndim == 1:
                dist_chunk = dist_chunk[_np.newaxis, :]
                pred_chunk = pred_chunk[_np.newaxis, :]
            dist_rows.append(dist_chunk)
            pred_rows.append(pred_chunk)
        dist_all = _np.concatenate(dist_rows, axis=0)
        pred_all = _np.concatenate(pred_rows, axis=0)
        offset = 0
        row = 0
        for tables, job_sources in group:
            size = len(tables.nodes)
            nodes_np = nodes_g[offset : offset + size]
            for source in job_sources:
                dist = dist_all[row, offset : offset + size]
                pred_group = pred_all[row, offset : offset + size].astype(_np.int64)
                valid = pred_group >= 0
                pred_local = _np.where(valid, pred_group - offset, -1)
                if with_pred_edges:
                    pred_edge = _np.full(size, -1, dtype=_np.int64)
                    if valid.any():
                        pred_edge[valid] = graph.edge_ids_for_pairs(
                            nodes_g[pred_group[valid]], nodes_np[valid]
                        )
                else:
                    pred_edge = None
                consume(tables, source, dist, pred_local, pred_edge)
                row += 1
            offset += size


def _sweep_regions_numpy(overlay: HierarchicalOverlay, swept: List[RegionTables]) -> None:
    """Build-time border tables via the packed block-diagonal sweeps."""

    def consume(tables, source, dist, pred_local, pred_edge):
        order = _np.argsort(dist, kind="stable")[::-1]
        tables.dist.append(dist.tolist())
        tables.pred.append(pred_local.tolist())
        tables.pred_edge.append(pred_edge.tolist())
        tables.order.append(order.tolist())

    _grouped_region_dijkstra(overlay, [(tables, tables.border_nodes) for tables in swept], consume)


# ----------------------------------------------------------------------
# Mesh
# ----------------------------------------------------------------------
def _build_mesh(
    overlay: HierarchicalOverlay,
    edges: List[Tuple[int, int, float]],
    backend: str,
) -> None:
    """All-pairs distances/predecessors over the overlay graph."""
    count = len(overlay.ov_nodes)
    if backend == "numpy":
        if edges:
            head = _np.fromiter((e[0] for e in edges), dtype=_np.int64, count=len(edges))
            tail = _np.fromiter((e[1] for e in edges), dtype=_np.int64, count=len(edges))
            data = _np.fromiter((e[2] for e in edges), dtype=_np.float64, count=len(edges))
            matrix = _csr_matrix(
                (
                    _np.concatenate([data, data]),
                    (
                        _np.concatenate([head, tail]),
                        _np.concatenate([tail, head]),
                    ),
                ),
                shape=(count, count),
            )
        else:
            matrix = _csr_matrix((count, count))
        dist_rows = []
        pred_rows = []
        chunk = max(1, BATCH_CHUNK_CELLS // max(1, count))
        for start in range(0, count, chunk):
            batch = _np.arange(start, min(start + chunk, count), dtype=_np.int64)
            KERNEL_COUNTERS.batch_dijkstra_calls += 1
            KERNEL_COUNTERS.batch_sources_total += len(batch)
            dist_chunk, pred_chunk = _scipy_dijkstra(
                matrix, directed=False, indices=batch, return_predecessors=True
            )
            if dist_chunk.ndim == 1:
                dist_chunk = dist_chunk[_np.newaxis, :]
                pred_chunk = pred_chunk[_np.newaxis, :]
            dist_rows.append(dist_chunk)
            pred_rows.append(pred_chunk.astype(_np.int64))
        overlay.mesh_dist = (
            _np.concatenate(dist_rows, axis=0)
            if dist_rows
            else _np.zeros((0, 0), dtype=_np.float64)
        )
        overlay.mesh_pred = (
            _np.concatenate(pred_rows, axis=0) if pred_rows else _np.zeros((0, 0), dtype=_np.int64)
        )
        return
    adjacency: List[List[Tuple[float, int]]] = [[] for _ in range(count)]
    for u, v, w in edges:
        adjacency[u].append((w, v))
        adjacency[v].append((w, u))
    mesh_dist: List[List[float]] = []
    mesh_pred: List[List[int]] = []
    for source in range(count):
        dist = [inf] * count
        pred = [-1] * count
        dist[source] = 0.0
        visited = bytearray(count)
        heap: List[Tuple[float, int]] = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if visited[u]:
                continue
            visited[u] = 1
            for w, v in adjacency[u]:
                if visited[v]:
                    continue
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    pred[v] = u
                    heapq.heappush(heap, (nd, v))
        mesh_dist.append(dist)
        mesh_pred.append(pred)
    overlay.mesh_dist = mesh_dist
    overlay.mesh_pred = mesh_pred


# ----------------------------------------------------------------------
# Build
# ----------------------------------------------------------------------
def build_overlay(
    graph: CompiledGraph,
    weight: Optional[str] = None,
    backend: Optional[str] = None,
    mesh_cap: Optional[int] = None,
) -> HierarchicalOverlay:
    """Construct the hierarchical overlay for one compiled snapshot.

    Args:
        graph: The compiled snapshot to partition.
        weight: ``"length"`` (the default, also ``None``) or ``"hops"``; the
            overlay reads the snapshot's column
            (:meth:`~repro.topology.compiled.CompiledGraph.edge_weight_column`).
        backend: Library-wide backend switch (see module docstring).
        mesh_cap: Optional ceiling on ``overlay_nodes**2``; exceeded caps
            raise :class:`OverlayTooLarge` *before* any sweep runs, which is
            how ``method="auto"`` declines unfavourable instances cheaply.
    """
    resolved = resolve_backend(backend)
    name = "length" if weight is None else weight
    overlay = HierarchicalOverlay(graph, name, resolved, graph.edge_weight_column(name))
    KERNEL_COUNTERS.hier_overlay_builds += 1
    n = graph.num_nodes

    ranks = _compiled_level_ranks(graph)
    core = [rank <= CORE_CUT_RANK for rank in ranks]
    overlay.elected = not any(core)
    if overlay.elected and n:
        core = _elect_core_mask(graph)

    cell_of, num_regions, region_nodes = _partition_cells(graph, core, resolved)
    overlay.cell_of = cell_of
    overlay.num_regions = num_regions

    region_local = [-1] * n
    for nodes in region_nodes[1:]:
        for local, node in enumerate(nodes):
            region_local[node] = local
    overlay.region_local = region_local

    # Border detection + the real overlay edges (every edge with a core
    # endpoint); regions never touch each other directly, so all inter-cell
    # edges appear here.
    border_sets: List[set] = [set() for _ in range(num_regions + 1)]
    real_edges: List[Tuple[int, int, int]] = []
    edge_u = graph.edge_u.tolist()
    edge_v = graph.edge_v.tolist()
    for e in range(graph.num_edges):
        u = edge_u[e]
        v = edge_v[e]
        core_u = core[u]
        core_v = core[v]
        if core_u or core_v:
            real_edges.append((u, v, e))
            if core_u and not core_v:
                border_sets[cell_of[v]].add(v)
            elif core_v and not core_u:
                border_sets[cell_of[u]].add(u)

    overlay_nodes = sorted(
        [i for i in range(n) if core[i]] + [node for borders in border_sets[1:] for node in borders]
    )
    overlay.ov_nodes = overlay_nodes
    if mesh_cap is not None and len(overlay_nodes) * len(overlay_nodes) > mesh_cap:
        raise OverlayTooLarge(
            f"overlay mesh {len(overlay_nodes)}^2 exceeds the {mesh_cap}-cell budget"
        )
    ov_of_node = [-1] * n
    for ov, node in enumerate(overlay_nodes):
        ov_of_node[node] = ov
    overlay.ov_of_node = ov_of_node
    overlay.ov_region = [cell_of[node] for node in overlay_nodes]
    overlay.ov_row = [0] * len(overlay_nodes)

    regions: List[Optional[RegionTables]] = [None]
    swept: List[RegionTables] = []
    for r in range(1, num_regions + 1):
        border_nodes = sorted(border_sets[r])
        tables = RegionTables(region_nodes[r], border_nodes)
        for row, border in enumerate(border_nodes):
            ov = ov_of_node[border]
            tables.borders.append(ov)
            overlay.ov_row[ov] = row
        regions.append(tables)
        if not border_nodes:
            continue
        if len(tables.nodes) == 1:
            _trivial_tables(tables)
        else:
            swept.append(tables)
    overlay.regions = regions

    if swept:
        if resolved == "numpy":
            _sweep_regions_numpy(overlay, swept)
        else:
            _sweep_regions_python(overlay, swept)

    # Overlay edge list: real core-incident edges + per-region shortcuts.
    weight_values = overlay.weight_values()
    mesh_edges: List[Tuple[int, int, float]] = []
    for u, v, e in real_edges:
        ov_u = ov_of_node[u]
        ov_v = ov_of_node[v]
        mesh_edges.append((ov_u, ov_v, weight_values[e]))
        overlay.real_step[(ov_u, ov_v)] = e
        overlay.real_step[(ov_v, ov_u)] = e
    for tables in regions[1:]:
        if tables is None or len(tables.borders) < 2:
            continue
        for i in range(len(tables.borders)):
            local_i = region_local[tables.border_nodes[i]]
            for j in range(i + 1, len(tables.borders)):
                local_j = region_local[tables.border_nodes[j]]
                # The same unique restricted path read from either end; take
                # the lower float so the overlay weight is symmetric.
                shortcut = min(tables.dist[i][local_j], tables.dist[j][local_i])
                mesh_edges.append((tables.borders[i], tables.borders[j], shortcut))

    _build_mesh(overlay, mesh_edges, resolved)
    return overlay


def overlay_for(
    graph: CompiledGraph,
    weight: Optional[str] = None,
    backend: Optional[str] = None,
    mesh_cap: Optional[int] = None,
) -> HierarchicalOverlay:
    """The (lazily built) overlay for a snapshot and weight name.

    Cached on the snapshot per (weight name, backend); it dies with the
    snapshot on the next ``Topology.version`` bump — the same invalidation
    contract as ``scipy_csr``.
    """
    resolved = resolve_backend(backend)
    key = ("length" if weight is None else weight, resolved)
    overlay = graph._overlay_cache.get(key)
    if overlay is None:
        overlay = build_overlay(graph, weight, resolved, mesh_cap)
        graph._overlay_cache[key] = overlay
    return overlay


# ----------------------------------------------------------------------
# Query: joins + scatter
# ----------------------------------------------------------------------
def _restricted_search(
    overlay: HierarchicalOverlay, cell: int, source: int
) -> Tuple[List[float], List[int], List[int]]:
    """Heap Dijkstra from ``source`` restricted to its region (local tables)."""
    KERNEL_COUNTERS.hier_region_sweeps += 1
    tables = overlay.regions[cell]
    graph = overlay.graph
    rows = graph.adjacency_rows()
    values = overlay.weight_values()
    cell_of = overlay.cell_of
    region_local = overlay.region_local
    nodes = tables.nodes
    size = len(nodes)
    dist = [inf] * size
    pred = [-1] * size
    pred_edge = [-1] * size
    source_local = region_local[source]
    dist[source_local] = 0.0
    visited = bytearray(size)
    heap: List[Tuple[float, int]] = [(0.0, source_local)]
    while heap:
        d, ul = heapq.heappop(heap)
        if visited[ul]:
            continue
        visited[ul] = 1
        for vg, e in rows[nodes[ul]]:
            if cell_of[vg] != cell:
                continue
            vl = region_local[vg]
            if visited[vl]:
                continue
            nd = d + values[e]
            if nd < dist[vl]:
                dist[vl] = nd
                pred[vl] = ul
                pred_edge[vl] = e
                heapq.heappush(heap, (nd, vl))
    return dist, pred, pred_edge


def _route_hierarchical(
    demand: CompiledDemand, opts: RoutingOptions, mesh_cap: Optional[int] = None
) -> FlowResult:
    """Route a compiled demand matrix through the hierarchical overlay.

    The ``route_demand(..., method="hierarchical")`` path, and the overlay
    attempt of ``method="auto"``; ``opts`` are the options the façade already
    validated.  Single-path mode only.
    See the module docstring for the partition, the exactness argument, and
    the flat-equivalence contract.  The overlay comes from :func:`overlay_for`
    (cached per snapshot and weight name); ``mesh_cap`` bounds the mesh for
    the automatic choice (:class:`OverlayTooLarge` on excess).
    """
    if opts.mode != "single":
        raise ValueError("hierarchical routing supports single-path mode only")
    resolved = resolve_backend(opts.backend)
    overlay = overlay_for(demand.graph, opts.weight, resolved, mesh_cap)
    return _route_over_overlay(demand, overlay, resolved)


def _route_over_overlay(
    demand: CompiledDemand, overlay: HierarchicalOverlay, backend: str
) -> FlowResult:
    graph = demand.graph
    pair_count = demand.num_pairs
    KERNEL_COUNTERS.hier_table_joins += pair_count
    unrouted = list(demand.unmatched)
    use_numpy = backend == "numpy" and overlay.backend == "numpy"

    # Per-pair join decisions.  ``intra`` pairs route on a lazily computed
    # region-restricted tree; everything else goes up/across/down.
    tree_flows: Dict[int, Tuple[List[int], List[float]]] = {}
    across: Dict[Tuple[int, int], float] = {}
    intra_jobs: Dict[Tuple[int, int], List[Tuple[int, float]]] = {}
    restricted: Dict[Tuple[int, int], Tuple[List[float], List[int], List[int]]] = {}
    intra_steps = None  # numpy branch: pre-walked (tails, heads, volumes)
    routed_pairs = 0
    routed_volume = 0.0

    sources = demand.sources
    targets = demand.targets
    volumes = demand.volumes
    labels = demand.labels
    cell_of = overlay.cell_of
    ov_region = overlay.ov_region

    def _restricted_for(cell: int, s: int):
        key = (cell, s)
        tables = restricted.get(key)
        if tables is None:
            tables = _restricted_search(overlay, cell, s)
            restricted[key] = tables
        return tables

    def _bucket(a: int, b: int, s: int, t: int, vol: float) -> None:
        if a != b:
            key = (a, b)
            across[key] = across.get(key, 0.0) + vol
        if ov_region[a] != 0:
            flow = tree_flows.get(a)
            if flow is None:
                flow = ([], [])
                tree_flows[a] = flow
            flow[0].append(s)
            flow[1].append(vol)
        if ov_region[b] != 0:
            flow = tree_flows.get(b)
            if flow is None:
                flow = ([], [])
                tree_flows[b] = flow
            flow[0].append(t)
            flow[1].append(vol)

    if use_numpy and pair_count:
        s_arr = _np.asarray(sources, dtype=_np.int64)
        t_arr = _np.asarray(targets, dtype=_np.int64)
        v_arr = _np.asarray(volumes, dtype=_np.float64)
        mesh = overlay.mesh_dist
        endpoints = _np.unique(_np.concatenate([s_arr, t_arr]))
        access_lists = [overlay.access(int(node)) for node in endpoints]
        pad = max(1, max((len(acc) for acc in access_lists), default=1))
        acc_id = _np.zeros((len(endpoints), pad), dtype=_np.int64)
        acc_d = _np.full((len(endpoints), pad), _np.inf, dtype=_np.float64)
        for row, acc in enumerate(access_lists):
            for col, (ov, dist) in enumerate(acc):
                acc_id[row, col] = ov
                acc_d[row, col] = dist
        s_pos = _np.searchsorted(endpoints, s_arr)
        t_pos = _np.searchsorted(endpoints, t_arr)
        best = _np.empty(pair_count, dtype=_np.float64)
        best_a = _np.empty(pair_count, dtype=_np.int64)
        best_b = _np.empty(pair_count, dtype=_np.int64)
        chunk = max(1, JOIN_CHUNK_CELLS // (pad * pad))
        for start in range(0, pair_count, chunk):
            stop = min(start + chunk, pair_count)
            a_ids = acc_id[s_pos[start:stop]]
            a_d = acc_d[s_pos[start:stop]]
            b_ids = acc_id[t_pos[start:stop]]
            b_d = acc_d[t_pos[start:stop]]
            # (da + mesh) + db — the same association as the Python join.
            cand = (a_d[:, :, None] + mesh[a_ids[:, :, None], b_ids[:, None, :]]) + b_d[:, None, :]
            flat = cand.reshape(stop - start, pad * pad)
            pick = _np.argmin(flat, axis=1)
            rows = _np.arange(stop - start)
            best[start:stop] = flat[rows, pick]
            best_a[start:stop] = a_ids[rows, pick // pad]
            best_b[start:stop] = b_ids[rows, pick % pad]

        self_pair = s_arr == t_arr
        s_cells = _np.asarray(cell_of, dtype=_np.int64)[s_arr]
        t_cells = _np.asarray(cell_of, dtype=_np.int64)[t_arr]
        same_region = (s_cells == t_cells) & (s_cells > 0) & ~self_pair
        intra_flag = _np.zeros(pair_count, dtype=bool)
        region_local = overlay.region_local
        same_positions = _np.nonzero(same_region)[0]
        if len(same_positions):
            # Batch every distinct (region, source) restricted search through
            # the same packed block-diagonal dispatch as the build-time
            # sweeps — per-source Python Dijkstras dominate the route
            # otherwise when endpoints cluster inside large regions.  Each
            # job refines all of its pairs vectorized in ``consume`` and
            # keeps only the predecessor row for the later chain walks.
            region_local_np = _np.asarray(region_local, dtype=_np.int64)
            pair_groups: Dict[Tuple[int, int], List[int]] = {}
            for position in same_positions.tolist():
                key = (int(s_cells[position]), int(s_arr[position]))
                pair_groups.setdefault(key, []).append(position)
            jobs: Dict[int, List[int]] = {}
            for cell, source in pair_groups:
                jobs.setdefault(cell, []).append(source)
            preds: Dict[Tuple[int, int], Any] = {}

            def consume(tables, source, dist, pred_local, pred_edge):
                cell = cell_of[tables.nodes[0]]
                positions = _np.asarray(pair_groups[(cell, source)])
                t_local = region_local_np[t_arr[positions]]
                refined = dist[t_local]
                win = (refined <= best[positions]) | ~_np.isfinite(best[positions])
                winners = positions[win]
                intra_flag[winners] = True
                best[winners] = refined[win]
                preds[(cell, source)] = pred_local

            _grouped_region_dijkstra(
                overlay,
                [(overlay.regions[cell], srcs) for cell, srcs in jobs.items()],
                consume,
                with_pred_edges=False,
            )
            # Intra scatter, vectorized: walk each winning pair's chain on
            # the local predecessor row, then resolve every step's edge id
            # in one batched lookup and accumulate with one indexed add.
            step_tails: List[int] = []
            step_heads: List[int] = []
            step_volumes: List[float] = []
            for (cell, source), positions in pair_groups.items():
                pred = preds[(cell, source)]
                nodes = overlay.regions[cell].nodes
                source_local = region_local[source]
                for position in positions:
                    if not intra_flag[position]:
                        continue
                    vol = float(v_arr[position])
                    cur = region_local[int(t_arr[position])]
                    while cur != source_local:
                        parent = int(pred[cur])
                        step_tails.append(nodes[parent])
                        step_heads.append(nodes[cur])
                        step_volumes.append(vol)
                        cur = parent
            intra_steps = (
                (
                    _np.asarray(step_tails, dtype=_np.int64),
                    _np.asarray(step_heads, dtype=_np.int64),
                    _np.asarray(step_volumes, dtype=_np.float64),
                )
                if step_tails
                else None
            )

        routed = _np.isfinite(best) | self_pair
        routed_pairs = int(routed.sum())
        routed_volume = float(v_arr[routed].sum())
        for position in _np.nonzero(~routed)[0].tolist():
            unrouted.append((*labels[position], float(v_arr[position])))
        # Intra pairs already scattered their chain steps above (always
        # routed: regions are connected); only the join pairs bucket here.
        scatter = routed & ~self_pair
        join_mask = scatter & ~intra_flag
        positions = _np.nonzero(join_mask)[0]
        for a, b, s, t, vol in zip(
            best_a[positions].tolist(),
            best_b[positions].tolist(),
            s_arr[positions].tolist(),
            t_arr[positions].tolist(),
            v_arr[positions].tolist(),
        ):
            _bucket(a, b, s, t, vol)
    else:
        mesh = overlay.mesh_dist
        access_cache: Dict[int, List[Tuple[int, float]]] = {}
        region_local = overlay.region_local
        for position in range(pair_count):
            s = sources[position]
            t = targets[position]
            vol = volumes[position]
            if s == t:
                routed_pairs += 1
                routed_volume += vol
                continue
            acc_s = access_cache.get(s)
            if acc_s is None:
                acc_s = overlay.access(s)
                access_cache[s] = acc_s
            acc_t = access_cache.get(t)
            if acc_t is None:
                acc_t = overlay.access(t)
                access_cache[t] = acc_t
            best = inf
            best_a = -1
            best_b = -1
            for a, da in acc_s:
                row = mesh[a]
                for b, db in acc_t:
                    d = (da + row[b]) + db
                    if d < best:
                        best = d
                        best_a = a
                        best_b = b
            cell = cell_of[s]
            if cell > 0 and cell == cell_of[t]:
                dist, _, _ = _restricted_for(cell, s)
                restricted_dist = dist[region_local[t]]
                if restricted_dist <= best or best == inf:
                    routed_pairs += 1
                    routed_volume += vol
                    intra_jobs.setdefault((cell, s), []).append((t, vol))
                    continue
            if best == inf:
                unrouted.append((*labels[position], vol))
                continue
            routed_pairs += 1
            routed_volume += vol
            _bucket(best_a, best_b, s, t, vol)

    KERNEL_COUNTERS.traffic_assigned_pairs += routed_pairs

    # ----------------------------------------------------------------
    # Scatter: across walks -> tree flows -> region-tree cascades.
    # ----------------------------------------------------------------
    if use_numpy:
        edge_loads: Any = _np.zeros(graph.num_edges, dtype=_np.float64)
    else:
        edge_loads = array("d", [0.0]) * graph.num_edges
    mesh_pred = overlay.mesh_pred
    real_step = overlay.real_step
    ov_nodes = overlay.ov_nodes
    for (a, b), vol in across.items():
        row = mesh_pred[a]
        cur = b
        hops = 0
        while cur != a:
            prev = int(row[cur])
            edge = real_step.get((prev, cur))
            if edge is not None:
                edge_loads[edge] += vol
            else:
                # Region shortcut: flow crosses the region on the border
                # tree of ``prev``, entering the tree at ``cur``'s node.
                flow = tree_flows.get(prev)
                if flow is None:
                    flow = ([], [])
                    tree_flows[prev] = flow
                flow[0].append(ov_nodes[cur])
                flow[1].append(vol)
            cur = prev
            hops += 1
            if hops > len(ov_nodes):  # pragma: no cover - defensive
                raise RuntimeError("mesh predecessor walk did not terminate")

    region_local = overlay.region_local
    for ov, (nodes_list, vols) in tree_flows.items():
        tables = overlay.regions[ov_region[ov]]
        row = overlay.ov_row[ov]
        flow = [0.0] * len(tables.nodes)
        for node, vol in zip(nodes_list, vols):
            flow[region_local[node]] += vol
        pred = tables.pred[row]
        pred_edge = tables.pred_edge[row]
        for local in tables.order[row]:
            f = flow[local]
            if f != 0.0:
                parent = pred[local]
                if parent >= 0:
                    edge_loads[pred_edge[local]] += f
                    flow[parent] += f

    if intra_steps is not None:
        tails, heads, step_volumes = intra_steps
        edge_ids = graph.edge_ids_for_pairs(tails, heads)
        _np.add.at(edge_loads, edge_ids, step_volumes)
    for (cell, s), jobs in intra_jobs.items():
        _, pred, pred_edge = restricted[(cell, s)]
        source_local = region_local[s]
        for t, vol in jobs:
            cur = region_local[t]
            while cur != source_local:
                edge_loads[pred_edge[cur]] += vol
                cur = pred[cur]

    return FlowResult(
        graph=graph,
        edge_loads=edge_loads,
        routed_volume=routed_volume,
        routed_pairs=routed_pairs,
        unrouted=unrouted,
        mode="single",
    )
