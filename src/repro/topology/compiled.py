"""Compiled CSR view of a :class:`Topology` for analysis kernels.

The annotated object graph (:class:`repro.topology.graph.Topology`) is the
mutable source of truth: nodes and links are rich Python objects carrying
roles, locations, capacities, and costs.  That representation is ideal for
construction and annotation but slow for the evaluation loop that dominates
every experiment — repeated shortest paths, demand assignment, and robustness
traces walk it one ``Link`` object at a time.

:class:`CompiledGraph` snapshots a topology into flat, int-indexed CSR
buffers (``indptr``/``indices`` plus per-edge weight columns) that the
kernels in this module run against.  When numpy and scipy are importable the
buffers are **native contiguous numpy arrays** (int32 CSR topology, int64
edge ids, float64 weight columns) — not per-call conversions — and the batch
kernels dispatch to ``scipy.sparse.csgraph`` over a ``csr_matrix`` built
zero-copy from (and cached next to) those buffers.  Without them the same
attributes are ``array('q')``/``array('d')`` buffers and every kernel runs
pure Python.

The contract between the two layers:

* ``Topology.version`` is a monotonically increasing counter bumped by every
  structural mutation (node/link addition or removal).
* ``Topology.compiled()`` returns a cached :class:`CompiledGraph` and rebuilds
  it only when ``version`` changed since the last build.
* Kernels accept and return **int node indices**; public APIs in the
  optimization/routing/metrics layers translate ids at the boundary.
* Link *annotation* mutations (e.g. ``link.load``) do not bump the version.
  A routing weight is named, ``"length"`` or ``"hops"``, and
  :meth:`CompiledGraph.edge_weight_column` builds each column once per
  snapshot.  ``Link.length`` is writable, and a length written after the
  ``"length"`` column was built stays invisible to it: the column is stale
  until ``Topology.touch()`` (or any structural mutation) forces a rebuild.

Backend selection
-----------------

Every batch kernel takes a ``backend=`` switch:

* ``"python"`` — the canonical pure-Python implementation.  This is the
  equality/tolerance **reference**: its deterministic tie-breaking contracts
  (documented per kernel) define correct behaviour, and the property tests
  compare every accelerated path against it.
* ``"numpy"`` — the ``scipy.sparse.csgraph`` batch path (requires numpy *and*
  scipy; raises :class:`RuntimeError` when they are unavailable, so callers
  that must not silently fall back can pin it).
* ``"auto"`` / ``None`` — :data:`DEFAULT_BACKEND`: ``"numpy"`` when scipy is
  importable, else ``"python"``.

Setting the environment variable ``REPRO_BACKEND=python`` masks numpy/scipy
entirely (the no-scipy CI leg runs the whole test suite this way).  The
buffers are numpy arrays exactly when the numpy backend is available.

:func:`components_indices` and :func:`multi_source_bfs_indices` take an
optional ``mask`` (a ``bytearray`` with one truthy byte per *active* node
index), which is how the removal traces of :mod:`repro.metrics.resilience`
degrade a topology without copying it: flip bytes off instead of deleting
nodes.  Masked calls always run the pure-Python path (scipy has no node-mask
concept).
"""

from __future__ import annotations

import heapq
import os
from array import array
from math import inf
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .link import Link

_ENV_BACKEND = os.environ.get("REPRO_BACKEND", "auto").strip().lower() or "auto"
if _ENV_BACKEND not in ("auto", "python"):
    raise ValueError(f"REPRO_BACKEND={_ENV_BACKEND!r} is not one of 'auto', 'python'")

_np = None
_csr_matrix = None
_scipy_dijkstra = None
_scipy_connected_components = None
_HAVE_SCIPY = False
if _ENV_BACKEND != "python":
    try:
        import numpy as _np
        from scipy.sparse import csr_matrix as _csr_matrix
        from scipy.sparse.csgraph import (
            connected_components as _scipy_connected_components,
        )
        from scipy.sparse.csgraph import dijkstra as _scipy_dijkstra

        _HAVE_SCIPY = True
    except ImportError:  # pragma: no cover - exercised only without numpy/scipy
        _np = None

#: Backend used by ``backend=None``/``"auto"`` calls.
DEFAULT_BACKEND = "numpy" if _HAVE_SCIPY else "python"

#: Below this node count the batch kernels stay pure Python even under the
#: numpy backend: per-call scipy dispatch overhead exceeds the work saved on
#: tiny graphs, and results are identical either way (the numpy paths that
#: honour this threshold are exact-integer kernels).
SMALL_GRAPH_NODES = 512

#: Max ``sources x nodes`` cells per scipy batch call; larger batches are
#: chunked so distance/predecessor matrices stay within a bounded footprint
#: (16M cells ~ 128 MB of float64 + 64 MB of int32 predecessors).
BATCH_CHUNK_CELLS = 16_000_000

__all__ = [
    "CompiledGraph",
    "KernelCounters",
    "KERNEL_COUNTERS",
    "DEFAULT_BACKEND",
    "default_link_weight",
    "have_numpy_backend",
    "resolve_backend",
    "dijkstra_indices",
    "batch_hop_lengths",
    "bfs_indices",
    "multi_source_bfs_indices",
    "components_indices",
]


def have_numpy_backend() -> bool:
    """True when the numpy/scipy batch backend is importable and not masked."""
    return _HAVE_SCIPY


def resolve_backend(backend: Optional[str] = None) -> str:
    """Normalize a ``backend=`` argument to ``"python"`` or ``"numpy"``.

    ``None``/``"auto"`` resolve to :data:`DEFAULT_BACKEND`.  Requesting
    ``"numpy"`` when scipy is unavailable (or masked by
    ``REPRO_BACKEND=python``) raises :class:`RuntimeError` rather than
    silently falling back.
    """
    if backend is None or backend == "auto":
        return DEFAULT_BACKEND
    if backend == "python":
        return "python"
    if backend == "numpy":
        if not _HAVE_SCIPY:
            raise RuntimeError(
                "numpy backend requested but numpy/scipy are unavailable "
                "(or masked by REPRO_BACKEND=python)"
            )
        return "numpy"
    raise ValueError(
        f"unknown backend {backend!r}; expected 'auto', 'python', or 'numpy'"
    )


class KernelCounters:
    """Invocation counters for the compiled kernels and the generation engine.

    The counters make algorithmic claims checkable: e.g. the benchmark suite
    asserts that generator growth performs O(n log n) sampler operations
    (``sampler_draws``/``sampler_updates``) and a bounded number of spatial
    candidate evaluations (``spatial_queries``/``spatial_candidates``) instead
    of the seed's O(n^2) scans.  The incremental objective engine
    (:mod:`repro.optimization.incremental`) records every canonical
    ``Objective.evaluate`` as ``objective_full_evals`` and every O(Δ)
    move evaluation as ``objective_delta_evals``, so benchmarks can assert
    that local search runs almost entirely on delta evaluations.  The traffic
    engine (:mod:`repro.routing.engine`) records one ``traffic_batched_sources``
    per shortest-path search (E11 asserts exactly one per unique demand
    source), every routed pair as ``traffic_assigned_pairs``, and every
    ECMP flow division across tied shortest paths as ``traffic_ecmp_splits``.
    The hierarchical routing layer (:mod:`repro.routing.hierarchical`)
    records each overlay construction as ``hier_overlay_builds``, every
    restricted per-region sweep source as ``hier_region_sweeps``, and every
    demand pair answered through the overlay tables as ``hier_table_joins``
    — the E12 many-source gates assert the overlay actually answered the
    matrix instead of falling back to per-source searches.  The temporal
    engine (:mod:`repro.routing.temporal`) records every routed series step
    as ``temporal_steps``, every source group actually re-searched by the
    per-step diff as ``temporal_resolved_sources`` (unchanged groups reuse
    retained load columns and are *not* counted — the E13 gates assert the
    diff engages instead of silently re-routing everything), and every link
    tripped by a failure cascade as ``cascade_trips``.  The dynamic
    connectivity engine (:mod:`repro.topology.dynconn`) records every
    Euler-tour link/cut as ``dynconn_tree_ops`` and every tree-edge
    deletion's replacement hunt as ``dynconn_replacement_searches``.
    Nothing increments ``reachability_rebuilds``, so it always reads 0; it
    stays because the repository benchmark (``perfbench/``) reads it by key.

    Algorithm-count counters (``single_source``/``bfs``/``components``) are
    **backend-independent**: a batch scipy call records the same logical
    search count as the equivalent pure-Python loop.  The batch path
    additionally records each ``scipy.sparse.csgraph`` dispatch as
    ``batch_dijkstra_calls`` and the sources it covered as
    ``batch_sources_total`` — the E12 scaling gates assert these are non-zero,
    so a silent fallback to the slow path fails CI instead of passing slowly.
    """

    __slots__ = (
        "single_source",
        "bfs",
        "components",
        "compilations",
        "batch_dijkstra_calls",
        "batch_sources_total",
        "sampler_draws",
        "sampler_updates",
        "spatial_queries",
        "spatial_candidates",
        "objective_full_evals",
        "objective_delta_evals",
        "traffic_batched_sources",
        "traffic_assigned_pairs",
        "traffic_ecmp_splits",
        "hier_overlay_builds",
        "hier_region_sweeps",
        "hier_table_joins",
        "temporal_steps",
        "temporal_resolved_sources",
        "cascade_trips",
        "dynconn_tree_ops",
        "dynconn_replacement_searches",
        "reachability_rebuilds",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero all counters."""
        for name in self.__slots__:
            setattr(self, name, 0)

    def snapshot(self) -> Dict[str, int]:
        """Return the current counts as a plain dictionary."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        counts = ", ".join(f"{k}={v}" for k, v in self.snapshot().items())
        return f"KernelCounters({counts})"


#: Process-wide kernel invocation counters (reset freely in benchmarks/tests).
KERNEL_COUNTERS = KernelCounters()


def default_link_weight(link: Link) -> float:
    """The library-wide default link weight: physical length, falling back to
    1.0 for zero-length links so purely logical graphs get hop-count paths.

    Raises :class:`ValueError` naming the link on a NaN, negative or infinite
    length (one written after construction).  Single source of truth — the
    routing layer's ``"length"`` weight is this function.
    """
    length = link.length
    # Written so that NaN fails: it is neither in range nor zero.
    if 0 < length < inf:
        return length
    if length == 0:
        return 1.0
    raise ValueError(
        f"link length must be finite and non-negative, got {length} on {link.key}"
    )


def _column_values(weights: Any) -> List[float]:
    """A weight column as a plain Python float list (for the Python kernels)."""
    return weights.tolist() if hasattr(weights, "tolist") else list(weights)


class CompiledGraph:
    """Immutable int-indexed CSR snapshot of a :class:`Topology`.

    Attributes:
        version: ``Topology.version`` at build time (cache key).
        num_nodes: Number of nodes in the snapshot.
        num_edges: Number of undirected edges in the snapshot.
        ids: Node id per index (index → id), in node insertion order.
        index_of: Node index per id (id → index).
        indptr: CSR row pointers, length ``num_nodes + 1`` (int32 numpy array
            when numpy is available, else ``array('q')``).
        indices: Neighbor node index per half-edge, length ``2 * num_edges``.
            Neighbor order within a row matches adjacency insertion order, so
            BFS discovery order is identical to the object-graph traversal.
        half_edge_ids: Undirected edge index per half-edge (int64).
        edge_u / edge_v: Endpoint node indices per undirected edge (int32).
        nodes: The live :class:`~repro.topology.node.Node` object per node
            index (role/annotation columns are derived from these on demand,
            mirroring ``links``).
        links: The live :class:`Link` object per undirected edge (weight
            columns are derived from these on demand).
        edge_keys: Canonical ``(u, v)`` link key per undirected edge.

    Per-snapshot caches (all invalidated for free when a structural mutation
    bumps ``Topology.version`` and a fresh snapshot is compiled): adjacency
    tuple rows for the Python kernels, named weight columns
    (:meth:`edge_weight_column`), ``scipy.sparse.csr_matrix`` instances per
    weight column (:meth:`scipy_csr`), the sorted half-edge key table
    behind :meth:`edge_ids_for_pairs`, and the hierarchical routing overlays
    (``_overlay_cache``, owned by :mod:`repro.routing.hierarchical` and keyed
    by weight-column name — the "same contract as ``scipy_csr``" invalidation
    the routing layer documents).
    """

    __slots__ = (
        "version",
        "num_nodes",
        "num_edges",
        "ids",
        "index_of",
        "indptr",
        "indices",
        "half_edge_ids",
        "edge_u",
        "edge_v",
        "nodes",
        "links",
        "edge_keys",
        "_adjacency_rows",
        "_relaxation_cache",
        "_weight_columns",
        "_csr_cache",
        "_edge_lookup",
        "_overlay_cache",
    )

    def __init__(self, topology: Any) -> None:
        KERNEL_COUNTERS.compilations += 1
        self.version: int = topology.version
        ids: List[Any] = list(topology.node_ids())
        index_of: Dict[Any, int] = {nid: i for i, nid in enumerate(ids)}
        links: List[Link] = list(topology.links())
        edge_keys: List[Tuple[Any, Any]] = list(topology.link_keys())
        edge_index = {id(link): e for e, link in enumerate(links)}

        n = len(ids)
        m = len(links)
        adjacency = topology._adjacency  # same-package structural access
        if _HAVE_SCIPY:
            indptr = _np.zeros(n + 1, dtype=_np.int32)
            _np.cumsum(
                _np.fromiter(
                    (len(adjacency[nid]) for nid in ids), dtype=_np.int32, count=n
                ),
                out=indptr[1:],
            )
            indices = _np.fromiter(
                (
                    index_of[neighbor]
                    for nid in ids
                    for neighbor in adjacency[nid]
                ),
                dtype=_np.int32,
                count=2 * m,
            )
            half_edge_ids = _np.fromiter(
                (
                    edge_index[id(link)]
                    for nid in ids
                    for link in adjacency[nid].values()
                ),
                dtype=_np.int64,
                count=2 * m,
            )
            edge_u = _np.fromiter(
                (index_of[link.source] for link in links), dtype=_np.int32, count=m
            )
            edge_v = _np.fromiter(
                (index_of[link.target] for link in links), dtype=_np.int32, count=m
            )
        else:
            indptr = array("q", [0]) * (n + 1)
            for i, nid in enumerate(ids):
                indptr[i + 1] = indptr[i] + len(adjacency[nid])
            indices = array("q", [0]) * (2 * m)
            half_edge_ids = array("q", [0]) * (2 * m)
            k = 0
            for nid in ids:
                for neighbor, link in adjacency[nid].items():
                    indices[k] = index_of[neighbor]
                    half_edge_ids[k] = edge_index[id(link)]
                    k += 1
            edge_u = array("q", [0]) * m
            edge_v = array("q", [0]) * m
            for e, link in enumerate(links):
                edge_u[e] = index_of[link.source]
                edge_v[e] = index_of[link.target]

        self.num_nodes = n
        self.num_edges = m
        self.ids = ids
        self.index_of = index_of
        self.nodes = list(topology.nodes())
        self.indptr = indptr
        self.indices = indices
        self.half_edge_ids = half_edge_ids
        self.edge_u = edge_u
        self.edge_v = edge_v
        self.links = links
        self.edge_keys = edge_keys
        self._adjacency_rows: Optional[List[List[Tuple[int, int]]]] = None
        self._relaxation_cache: Optional[Tuple[Any, List[List[Tuple[float, int, int]]]]] = None
        self._weight_columns: Dict[str, Any] = {}
        self._csr_cache: List[Tuple[Any, Any]] = []
        self._edge_lookup: Optional[Tuple[Any, Any]] = None
        self._overlay_cache: Dict[Any, Any] = {}

    # ------------------------------------------------------------------
    # Derived columns
    # ------------------------------------------------------------------
    def degree(self, index: int) -> int:
        """Degree of the node at ``index``."""
        return int(self.indptr[index + 1] - self.indptr[index])

    def degrees(self) -> Any:
        """Degree per node index as an int column (numpy array or ``array``)."""
        if _HAVE_SCIPY:
            return _np.diff(_np.asarray(self.indptr, dtype=_np.int64))
        out = array("q", [0]) * self.num_nodes
        indptr = self.indptr
        for i in range(self.num_nodes):
            out[i] = indptr[i + 1] - indptr[i]
        return out

    def edge_weight_column(self, name: Optional[str]) -> Any:
        """The routing weight column ``name``, built once per snapshot.

        ``"length"`` (also ``None``, the library default) is
        :func:`default_link_weight` per link, which raises :class:`ValueError`
        naming the link on a negative, NaN or infinite length; ``"hops"`` is
        1.0 per link.  Both are strictly positive.  Any other name raises
        :class:`ValueError`.  The column is shared by every caller on this
        snapshot (and so is its ``csr_matrix``: :meth:`scipy_csr` caches by
        column identity).  A float64 numpy array when the numpy backend is
        available, else ``array('d')``.
        """
        key = "length" if name is None else name
        column = self._weight_columns.get(key)
        if column is not None:
            return column
        m = self.num_edges
        if key == "length":
            if _HAVE_SCIPY:
                column = _np.fromiter(
                    (default_link_weight(link) for link in self.links),
                    dtype=_np.float64,
                    count=m,
                )
            else:
                column = array("d", map(default_link_weight, self.links))
        elif key == "hops":
            column = _np.ones(m, dtype=_np.float64) if _HAVE_SCIPY else array("d", [1.0]) * m
        else:
            raise ValueError(f"unknown weight {name!r}; expected 'length' or 'hops'")
        self._weight_columns[key] = column
        return column

    def adjacency_rows(self) -> List[List[Tuple[int, int]]]:
        """Per-node ``(neighbor, edge)`` tuple rows, built once per snapshot.

        Tuple rows iterate several times faster than CSR range indexing in
        pure Python; the CSR arrays remain the canonical representation (and
        the zero-copy input to the optional scipy batch kernels).
        """
        rows = self._adjacency_rows
        if rows is None:
            indptr = self.indptr.tolist()
            indices = self.indices.tolist()
            half_edge_ids = self.half_edge_ids.tolist()
            rows = [
                list(zip(indices[indptr[i] : indptr[i + 1]],
                         half_edge_ids[indptr[i] : indptr[i + 1]]))
                for i in range(self.num_nodes)
            ]
            self._adjacency_rows = rows
        return rows

    def relaxation_rows(
        self, weights: Any
    ) -> List[List[Tuple[float, int, int]]]:
        """Per-node ``(weight, neighbor, edge)`` rows for Dijkstra relaxation.

        Cached for the most recent ``weights`` object, so a batch of searches
        sharing one weight column (e.g. the traffic engine's per-source loop)
        builds the rows once.  The column is flattened to plain Python floats
        first, so the heap kernels compare native floats even when the column
        is a numpy array.
        """
        cached = self._relaxation_cache
        if cached is not None and cached[0] is weights:
            return cached[1]
        values = _column_values(weights)
        rows = [
            [(values[e], v, e) for v, e in row] for row in self.adjacency_rows()
        ]
        self._relaxation_cache = (weights, rows)
        return rows

    def scipy_csr(self, weights: Any):
        """The snapshot as a ``scipy.sparse.csr_matrix`` (``None`` w/o scipy).

        Built zero-copy from the native numpy CSR buffers and cached per
        weight-column object (a small FIFO keyed by column identity), so each
        column from :meth:`edge_weight_column` gets one matrix per snapshot
        instead of one per call.
        """
        if not _HAVE_SCIPY:
            return None
        for column, matrix in self._csr_cache:
            if column is weights:
                return matrix
        data = _np.asarray(weights, dtype=_np.float64)[
            _np.asarray(self.half_edge_ids)
        ]
        matrix = _csr_matrix(
            (
                data,
                _np.asarray(self.indices),
                _np.asarray(self.indptr),
            ),
            shape=(self.num_nodes, self.num_nodes),
        )
        self._csr_cache.append((weights, matrix))
        if len(self._csr_cache) > 4:  # bound columns a caller built itself
            self._csr_cache.pop(0)
        return matrix

    def unit_csr(self):
        """Cached unit-weight ``csr_matrix`` (structure-only batch kernels)."""
        return self.scipy_csr(self.edge_weight_column("hops"))

    def edge_ids_for_pairs(self, tails: Any, heads: Any) -> Any:
        """Undirected edge id per ``(tails[i], heads[i])`` adjacent pair.

        Vectorized half-edge lookup over a sorted ``(row, col)`` key table
        built once per snapshot; used by the numpy traffic scatter to resolve
        predecessor edges from a predecessor node array.  Requires numpy; all
        pairs must be existing adjacencies.
        """
        lookup = self._edge_lookup
        if lookup is None:
            n = self.num_nodes
            counts = _np.diff(_np.asarray(self.indptr, dtype=_np.int64))
            rows = _np.repeat(_np.arange(n, dtype=_np.int64), counts)
            keys = rows * n + _np.asarray(self.indices, dtype=_np.int64)
            perm = _np.argsort(keys, kind="stable")
            edge_of_key = _np.asarray(self.half_edge_ids)[perm]
            lookup = (keys[perm], edge_of_key)
            self._edge_lookup = lookup
        sorted_keys, edge_of_key = lookup
        targets = (
            _np.asarray(tails, dtype=_np.int64) * self.num_nodes
            + _np.asarray(heads, dtype=_np.int64)
        )
        positions = _np.searchsorted(sorted_keys, targets)
        return edge_of_key[positions]

    def full_mask(self) -> bytearray:
        """A mask with every node active (for callers that then disable some)."""
        return bytearray(b"\x01") * self.num_nodes

    def __repr__(self) -> str:
        return (
            f"CompiledGraph(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"version={self.version})"
        )


# ----------------------------------------------------------------------
# Kernels (int-index world)
# ----------------------------------------------------------------------
def dijkstra_indices(
    graph: CompiledGraph, source: int, weights: Any
) -> Tuple[List[float], List[int], List[int]]:
    """Single-source shortest paths over the compiled view (pure Python).

    Returns ``(dist, pred, pred_edge)`` lists indexed by node index:
    ``dist`` is ``inf`` for unreachable nodes, ``pred`` is the predecessor
    node index (-1 for the source and unreachable nodes), and ``pred_edge``
    is the undirected edge index used to reach each node (-1 likewise).

    This is the canonical tie-breaking reference: under equal-distance ties
    the predecessor recorded is the first relaxation that achieved the final
    distance in heap-settle order.
    """
    KERNEL_COUNTERS.single_source += 1
    n = graph.num_nodes
    rows = graph.relaxation_rows(weights)
    dist = [inf] * n
    pred = [-1] * n
    pred_edge = [-1] * n
    dist[source] = 0.0
    visited = bytearray(n)
    heap: List[Tuple[float, int]] = [(0.0, source)]
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        d, u = pop(heap)
        if visited[u]:
            continue
        visited[u] = 1
        for w, v, e in rows[u]:
            if visited[v]:
                continue
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                pred_edge[v] = e
                push(heap, (nd, v))
    return dist, pred, pred_edge


def _batch_chunks(sources: Sequence[int], num_nodes: int) -> Iterable[List[int]]:
    """Split a source batch so each scipy call stays within the cell budget."""
    chunk = max(1, BATCH_CHUNK_CELLS // max(1, num_nodes))
    source_list = list(sources)
    for start in range(0, len(source_list), chunk):
        yield source_list[start : start + chunk]


def batch_hop_lengths(
    graph: CompiledGraph,
    sources: Sequence[int],
    backend: Optional[str] = None,
) -> List[List[int]]:
    """BFS hop distances from many sources at once (-1 when unreachable).

    The batch sibling of :func:`bfs_indices` for bulk hop metrics: one row of
    integer hop counts per source, in ``sources`` order.  Hop counts are
    exact integers under both backends, so results are backend-identical.
    The numpy path runs unweighted ``csgraph.dijkstra`` over the cached unit
    CSR matrix; graphs below :data:`SMALL_GRAPH_NODES` stay pure Python.
    """
    if not sources:
        return []
    if (
        resolve_backend(backend) == "numpy"
        and graph.num_edges > 0
        and graph.num_nodes >= SMALL_GRAPH_NODES
    ):
        KERNEL_COUNTERS.bfs += len(sources)
        matrix = graph.unit_csr()
        rows: List[List[int]] = []
        for chunk in _batch_chunks(sources, graph.num_nodes):
            KERNEL_COUNTERS.batch_dijkstra_calls += 1
            KERNEL_COUNTERS.batch_sources_total += len(chunk)
            result = _scipy_dijkstra(
                matrix, directed=False, indices=chunk, unweighted=True
            )
            if result.ndim == 1:
                result = result[_np.newaxis, :]
            hops = _np.where(_np.isinf(result), -1.0, result).astype(_np.int64)
            rows.extend(row.tolist() for row in hops)
        return rows
    rows = []
    for source in sources:
        dist, _ = bfs_indices(graph, source)
        rows.append(dist)
    return rows


def bfs_indices(graph: CompiledGraph, source: int) -> Tuple[List[int], List[int]]:
    """Breadth-first hop distances from one source (pure Python).

    Returns ``(dist, order)``: ``dist`` holds hop counts (-1 when
    unreachable) and ``order`` lists reached node indices in discovery order
    (matching the object-graph BFS, since CSR rows preserve adjacency
    insertion order).  The discovery-order contract is why this kernel has no
    numpy path — bulk consumers that only need distances use
    :func:`batch_hop_lengths`.
    """
    KERNEL_COUNTERS.bfs += 1
    rows = graph.adjacency_rows()
    dist = [-1] * graph.num_nodes
    dist[source] = 0
    order = [source]
    head = 0
    while head < len(order):
        u = order[head]
        head += 1
        du = dist[u] + 1
        for v, _ in rows[u]:
            if dist[v] == -1:
                dist[v] = du
                order.append(v)
    return dist, order


def multi_source_bfs_indices(
    graph: CompiledGraph,
    sources: Iterable[int],
    mask: Optional[bytearray] = None,
    backend: Optional[str] = None,
) -> List[int]:
    """Hop distance to the nearest source per node (-1 when unreachable).

    Hop counts are exact small integers, so the numpy path — unweighted
    ``min_only`` ``csgraph.dijkstra`` over the cached unit CSR matrix — is
    backend-identical to the pure-Python frontier sweep.  It engages for
    unmasked graphs of at least :data:`SMALL_GRAPH_NODES` nodes.
    """
    source_list = list(sources)
    if (
        resolve_backend(backend) == "numpy"
        and mask is None
        and graph.num_edges > 0
        and graph.num_nodes >= SMALL_GRAPH_NODES
        and source_list
    ):
        KERNEL_COUNTERS.bfs += 1
        KERNEL_COUNTERS.batch_dijkstra_calls += 1
        KERNEL_COUNTERS.batch_sources_total += len(source_list)
        matrix = graph.unit_csr()
        dist = _scipy_dijkstra(
            matrix, directed=False, indices=source_list, min_only=True, unweighted=True
        )
        return _np.where(_np.isinf(dist), -1.0, dist).astype(_np.int64).tolist()
    KERNEL_COUNTERS.bfs += 1
    rows = graph.adjacency_rows()
    dist = [-1] * graph.num_nodes
    frontier: List[int] = []
    for s in source_list:
        if mask is not None and not mask[s]:
            continue
        if dist[s] == -1:
            dist[s] = 0
            frontier.append(s)
    head = 0
    while head < len(frontier):
        u = frontier[head]
        head += 1
        du = dist[u] + 1
        for v, _ in rows[u]:
            if dist[v] != -1 or (mask is not None and not mask[v]):
                continue
            dist[v] = du
            frontier.append(v)
    return dist


def components_indices(
    graph: CompiledGraph,
    mask: Optional[bytearray] = None,
    backend: Optional[str] = None,
) -> Tuple[List[int], int]:
    """Connected-component labels over active nodes.

    Returns ``(labels, count)``: ``labels[v]`` is a component id in
    ``0..count-1`` assigned in order of each component's first node index,
    or -1 for masked-out nodes.  The numpy path relabels scipy's
    ``connected_components`` output into that canonical first-node order, so
    labels are backend-identical; it engages for unmasked graphs of at least
    :data:`SMALL_GRAPH_NODES` nodes.
    """
    KERNEL_COUNTERS.components += 1
    n = graph.num_nodes
    if (
        resolve_backend(backend) == "numpy"
        and mask is None
        and graph.num_edges > 0
        and n >= SMALL_GRAPH_NODES
    ):
        count, labels = _scipy_connected_components(graph.unit_csr(), directed=False)
        # Canonicalize: component ids in order of each component's first node.
        _, first = _np.unique(labels, return_index=True)
        rank = _np.empty(count, dtype=_np.int64)
        rank[_np.argsort(first, kind="stable")] = _np.arange(count)
        return rank[labels].tolist(), int(count)
    rows = graph.adjacency_rows()
    labels = [-1] * n
    count = 0
    stack: List[int] = []
    for start in range(n):
        if labels[start] != -1 or (mask is not None and not mask[start]):
            continue
        labels[start] = count
        stack.append(start)
        if mask is None:
            while stack:
                u = stack.pop()
                for v, _ in rows[u]:
                    if labels[v] == -1:
                        labels[v] = count
                        stack.append(v)
        else:
            while stack:
                u = stack.pop()
                for v, _ in rows[u]:
                    if labels[v] == -1 and mask[v]:
                        labels[v] = count
                        stack.append(v)
        count += 1
    return labels, count
