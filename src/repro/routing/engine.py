"""Vectorized traffic engine: batched demand routing on the compiled graph.

The paper (Section 2.2) names traffic demand "one of the key inputs" to the
optimization formulation: a topology is only ever evaluated through the
traffic it carries under shortest-path routing and the capacities provisioned
for that traffic.  This module is the array pipeline behind that evaluation:

* :func:`compile_demand` / :class:`CompiledDemand` translate a
  :class:`~repro.geography.demand.DemandMatrix` into int-indexed
  source/target/volume columns aligned with a
  :class:`~repro.topology.compiled.CompiledGraph` snapshot — endpoint-name
  resolution happens exactly once, not once per routing pass.
* :func:`route_demand` is the routing **façade**: called as
  ``route_demand(topology, demand_matrix, ...)`` it compiles and routes in
  one step (a pre-compiled :class:`CompiledDemand` is also accepted), with
  switches validated through :class:`~repro.routing.options.RoutingOptions`.
  Every pair routes with **one shortest-path search per unique source**
  (``KERNEL_COUNTERS.traffic_batched_sources`` counts them) and volumes
  scatter onto a per-edge load column by pushing flow down the predecessor
  tree — O(V) subtree accumulation per source instead of one path
  resolution per pair.
* **ECMP mode** (``mode="ecmp"``) splits each pair's volume equally across
  all tied shortest paths: per source, shortest-path counts are accumulated
  along the equal-distance DAG and flow is distributed proportionally
  (Brandes-style dependency accumulation), with tied predecessor edges
  visited in ascending edge-index order so splits are deterministic.
* :class:`FlowResult` holds the load column and writes it back to the
  annotated object graph in a single :meth:`~FlowResult.flush` pass —
  ``Link.load`` is a boundary concern, not a hot-loop accumulator.

Backends
--------

``route_demand`` takes the library-wide ``backend=`` switch (see
:mod:`repro.topology.compiled`).  Both backends run one per-source loop, the
same one that :mod:`repro.routing.temporal` re-resolves sources through: per
source, sum its positive pair volumes onto their reachable targets, then
scatter that flow down the shortest-path tree (or DAG).  Only the search and
the scatter kernels differ.  The ``"python"`` path is the canonical
reference: one heapq Dijkstra per source in first-appearance order,
predecessor-tree scatter in reverse tree-BFS order.  The ``"numpy"`` path
searches sources in sorted order, many per ``scipy.sparse.csgraph.dijkstra``
call over the cached CSR matrix, and replaces the per-node Python loops with
array programs:

* **Single-path scatter**: tree depths are computed from the predecessor
  array by pointer doubling (O(V log depth)), giving a topological order of
  the shortest-path tree; flow then cascades one depth level at a time with
  ``np.add.at`` — every node at a level pushes its accumulated subtree flow
  to its parent simultaneously.
* **ECMP**: the equal-distance DAG is extracted edge-wise over all
  half-edges at once (``dist[u] + w == dist[v]``, exact float equality);
  path counts and flow shares are accumulated level-by-level over the sorted
  unique distance values (both weight columns are strictly positive, so
  equal-distance nodes are never DAG-ordered).

Backend equivalence: distances are backend-identical, so *which* pairs route
and the per-source search plan agree exactly.  Each source's routed volume is
summed in pair order and the sources are tallied in first-appearance order
on both backends, so ``routed_volume`` (to the bit), ``routed_pairs`` and
the ``unrouted`` list (order included) are backend-identical; so are the
counters (``traffic_batched_sources``/``traffic_assigned_pairs``/
``traffic_ecmp_splits``).  Edge loads agree bit-for-bit on integral volumes,
and to float-accumulation tolerance otherwise (the numpy path scatters
sources in sorted rather than first-appearance order, and its subtree sums
associate differently).  In single-path mode under *tied* shortest paths
(e.g. hop weights), scipy's predecessor tree may pick a different — equally
shortest — tied optimum than the canonical Python tree; callers whose outputs
depend on that choice pin ``backend="python"`` (the E11 suite does) or use
ECMP mode, where tie handling is explicit and backend-independent.

Equivalence contract with a per-pair reference (one cached path resolution
per pair, loads added in pair order; ``tests/oracles.py`` keeps it), in
single-path mode:

* **Path choice**: both route every pair over a canonical shortest path.  On
  instances whose shortest paths are unique (e.g. Euclidean lengths, where
  exact distance ties have measure zero) the paths — and hence the edges
  loaded — are identical.  When *tied* shortest paths exist (hop weights),
  each side deterministically picks one of the tied optima, but compilation
  may orient a pair's search from the opposite endpoint, whose predecessor
  tree can select a different — equally shortest — path than the
  reference's.  Use ECMP mode when tie handling should be explicit.
* **Load arithmetic**: per edge, the load is the sum of the volumes of the
  pairs routed over it.  Subtree accumulation associates that sum bottom-up
  along the tree rather than in pair order, so on unique-shortest-path
  instances loads agree with the reference bit-for-bit whenever volume sums
  are exact (integral volumes — what ``benchmarks/bench_traffic.py`` gates)
  and to float-accumulation tolerance otherwise.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from math import inf
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from ..topology.compiled import (
    CompiledGraph,
    KERNEL_COUNTERS,
    _batch_chunks,
    dijkstra_indices,
    have_numpy_backend,
    resolve_backend,
)
from ..topology.graph import Topology, TopologyError
from .options import RoutingOptions

if have_numpy_backend():
    import numpy as _np
    from scipy.sparse.csgraph import dijkstra as _scipy_dijkstra
else:  # pragma: no cover - exercised by the no-scipy CI leg
    _np = None
    _scipy_dijkstra = None

__all__ = [
    "CompiledDemand",
    "FlowResult",
    "compile_demand",
    "route_demand",
]


@dataclass
class CompiledDemand:
    """A demand matrix compiled against one :class:`CompiledGraph` snapshot.

    Attributes:
        graph: The compiled topology snapshot the indices refer to.
        sources: Source node index per pair (pair order = matrix pair order).
        targets: Target node index per pair.
        volumes: Demand volume per pair.
        labels: The original ``(a, b)`` endpoint names per pair.
        unmatched: Pairs whose endpoints are missing from the topology, as
            ``(a, b, volume)`` — recorded at compile time, reported as
            unrouted by every routing pass.
    """

    graph: CompiledGraph
    sources: array
    targets: array
    volumes: array
    labels: List[Tuple[str, str]]
    unmatched: List[Tuple[str, str, float]] = field(default_factory=list)

    @property
    def num_pairs(self) -> int:
        """Number of compiled (routable-endpoint) pairs."""
        return len(self.volumes)

    def total_volume(self) -> float:
        """Total compiled volume (excludes unmatched pairs)."""
        return sum(self.volumes)


def compile_demand(
    topology: Topology,
    demand: Any,
    endpoint_map: Optional[Dict[str, Any]] = None,
) -> CompiledDemand:
    """Compile a demand matrix against ``topology.compiled()``.

    Args:
        topology: Topology the demand will be routed over.
        demand: A :class:`~repro.geography.demand.DemandMatrix` (anything with
            a ``pairs()`` iterator of ``(a, b, volume)``).
        endpoint_map: Maps demand endpoint names to topology node ids
            (identity mapping when omitted).

    Endpoints that do not resolve to a topology node land in
    :attr:`CompiledDemand.unmatched` instead of raising, so they are
    reported as unrouted.

    Demand is symmetric and the graph undirected, so each pair may be routed
    from either endpoint; compilation **orients** every pair toward the
    endpoint shared by more pairs (ties keep the matrix's canonical order).
    A hub-to-all matrix therefore batches into one search per hub instead of
    one per alphabetically-smaller endpoint — the search plan is part of what
    makes batched assignment fast.
    """
    endpoint_map = endpoint_map or {}
    graph = topology.compiled()
    index_of = graph.index_of
    resolved: List[Tuple[int, int, float, Tuple[str, str]]] = []
    unmatched: List[Tuple[str, str, float]] = []
    frequency: Dict[int, int] = {}
    for a, b, volume in demand.pairs():
        source = index_of.get(endpoint_map.get(a, a))
        target = index_of.get(endpoint_map.get(b, b))
        if source is None or target is None:
            unmatched.append((a, b, volume))
            continue
        resolved.append((source, target, volume, (a, b)))
        frequency[source] = frequency.get(source, 0) + 1
        frequency[target] = frequency.get(target, 0) + 1
    sources = array("q")
    targets = array("q")
    volumes = array("d")
    labels: List[Tuple[str, str]] = []
    for source, target, volume, label in resolved:
        if frequency[target] > frequency[source]:
            source, target = target, source
        sources.append(source)
        targets.append(target)
        volumes.append(volume)
        labels.append(label)
    return CompiledDemand(
        graph=graph,
        sources=sources,
        targets=targets,
        volumes=volumes,
        labels=labels,
        unmatched=unmatched,
    )


@dataclass
class FlowResult:
    """Edge-indexed result of routing a compiled demand matrix.

    Attributes:
        graph: The compiled snapshot the edge loads are aligned with.
        edge_loads: Load per undirected edge index (``array('d')`` from the
            Python backend, float64 numpy array from the numpy backend).
        routed_volume: Total volume that found a path.
        routed_pairs: Number of pairs that found a path.
        unrouted: ``(a, b, volume)`` for unmatched or disconnected pairs.
        mode: ``"single"`` or ``"ecmp"``.
    """

    graph: CompiledGraph
    edge_loads: Any
    routed_volume: float
    routed_pairs: int
    unrouted: List[Tuple[str, str, float]]
    mode: str

    #: How :meth:`loads_for` names a stale result of this class.
    _stale_name: ClassVar[str] = "FlowResult"

    @property
    def unrouted_volume(self) -> float:
        """Total volume that could not be routed."""
        return sum(volume for _, _, volume in self.unrouted)

    def loads_list(self) -> List[float]:
        """The edge load column as a plain Python float list."""
        return self.edge_loads.tolist()

    def link_loads(self) -> Dict[Tuple[Any, Any], float]:
        """Boundary conversion: loaded edges as a canonical-key dictionary."""
        edge_keys = self.graph.edge_keys
        return {edge_keys[e]: load for e, load in enumerate(self.loads_list()) if load != 0.0}

    def flush(self) -> None:
        """Write the edge load column back onto the live ``Link`` objects.

        One pass over the edge column, replacing whatever the links carried.
        Loads land as plain Python floats regardless of backend.
        """
        for link, load in zip(self.graph.links, self.loads_list()):
            link.load = load

    def max_load(self) -> float:
        """Largest per-edge load (0.0 on an edgeless graph)."""
        if not len(self.edge_loads):
            return 0.0
        if _np is not None and isinstance(self.edge_loads, _np.ndarray):
            return float(self.edge_loads.max())
        return max(self.edge_loads)

    def loads_for(self, topology: Topology) -> Any:
        """The edge-load column, validated against ``topology``'s snapshot.

        This is the contract behind passing a :class:`FlowResult` to the
        analysis/provisioning consumers (``utilization_report``,
        ``load_concentration``, ``provision_topology``): the column is only
        meaningful against the exact compiled snapshot it was routed on.  If
        the topology mutated since routing (its ``version`` moved, so
        ``topology.compiled()`` is a different snapshot), repricing the stale
        column would silently mis-assign loads to reindexed links — raise a
        :class:`~repro.topology.graph.TopologyError` instead.
        """
        graph = topology.compiled()
        if graph is not self.graph:
            raise TopologyError(
                f"stale {self._stale_name}: routed against snapshot version "
                f"{self.graph.version}, but topology {topology.name!r} now "
                f"compiles to version {graph.version} — re-route the demand "
                f"instead of repricing a stale load column"
            )
        return self.edge_loads


def route_demand(
    topology: Any,
    demand: Any = None,
    *,
    weight: Optional[str] = None,
    mode: str = "single",
    backend: str = "auto",
    method: str = "auto",
    endpoint_map: Optional[Dict[str, Any]] = None,
) -> FlowResult:
    """The routing façade: route a demand over a topology in one call.

    Two calling forms share one implementation:

    * ``route_demand(topology, demand_matrix, ...)`` — the documented entry
      point.  The matrix is compiled against ``topology.compiled()`` (see
      :func:`compile_demand`; ``endpoint_map`` maps matrix endpoint names to
      node ids) and routed in the same call.
    * ``route_demand(compiled_demand, ...)`` — the pre-compiled form for
      callers that reuse one :class:`CompiledDemand` across routing passes
      (benchmarks, backend-parity checks).  A :class:`CompiledDemand` may
      also be passed as the second argument next to its topology; it is then
      validated against the topology's *current* snapshot and a stale one
      raises :class:`~repro.topology.graph.TopologyError`.

    Switches are keyword-only and validated through
    :class:`~repro.routing.options.RoutingOptions` (an error names the bad
    field):

    * ``weight``: ``"length"`` (the default, also ``None``) or ``"hops"``.
    * ``mode``: ``"single"`` routes each pair over one canonical shortest
      path (the predecessor tree of the shared per-source search; identical
      to the per-pair reference on unique-shortest-path instances — see the
      module docstring for the tie caveat); ``"ecmp"`` splits each pair's
      volume equally over all tied shortest paths.
    * ``backend``: ``"python"`` (canonical reference), ``"numpy"`` (batched
      ``csgraph`` searches + vectorized scatter; requires scipy), or
      ``"auto"``.  See the module docstring for the backend equivalence
      contract.
    * ``method``: ``"flat"`` (one search per unique source — the engine in
      this module), ``"hierarchical"`` (overlay table joins — see
      :mod:`repro.routing.hierarchical`; single-path mode only), or
      ``"auto"``, which picks hierarchical for
      many-source single-path demand on large graphs whose overlay mesh fits
      the budget, and flat otherwise.

    Returns:
        A :class:`FlowResult` whose ``edge_loads`` column is aligned with
        the routed snapshot; call :meth:`FlowResult.flush` to annotate links
        or pass the result to ``utilization_report`` / ``load_concentration``
        / ``provision_topology`` directly.
    """
    opts = RoutingOptions(weight=weight, mode=mode, method=method, backend=backend)
    compiled = _resolve_compiled(
        "route_demand", topology, demand, endpoint_map, compile_demand, CompiledDemand
    )
    return _route_compiled(compiled, opts)


def _resolve_compiled(
    entry: str,
    topology: Any,
    demand: Any,
    endpoint_map: Optional[Dict[str, Any]],
    compile_fn: Callable[..., Any],
    compiled_type: type,
    raw_type: Optional[type] = None,
    compiled_first: bool = True,
) -> Any:
    """Normalize a routing entry point's calling forms to one compiled input.

    Shared by ``route_demand``, ``route_series`` and ``failure_cascade``:
    ``entry(compiled)`` (only when ``compiled_first``), ``entry(topology,
    compiled)``, checked against the topology's current snapshot, and
    ``entry(topology, raw)``, compiled with ``compile_fn``.  A raw input is a
    ``raw_type`` instance, or anything with ``pairs()`` (a demand matrix)
    when ``raw_type`` is None.
    """
    compiled_name = compiled_type.__name__
    raw_name = raw_type.__name__ if raw_type else "DemandMatrix"
    if compiled_first and isinstance(topology, compiled_type):
        if demand is not None:
            raise TypeError(
                f"{entry}({compiled_name}) takes no second argument; use "
                f"{entry}(topology, {raw_name}) to compile and route in one call"
            )
        compiled = topology
    elif not isinstance(topology, Topology):
        accepted = f"a Topology or {compiled_name}" if compiled_first else "a Topology"
        raise TypeError(f"{entry} expects {accepted} first, got {type(topology).__name__}")
    elif isinstance(demand, compiled_type):
        compiled = demand
    elif isinstance(demand, raw_type) if raw_type else hasattr(demand, "pairs"):
        return compile_fn(topology, demand, endpoint_map)
    else:
        raise TypeError(
            f"{entry}(topology, ...) needs a {raw_name} or {compiled_name}, "
            f"got {type(demand).__name__}"
        )
    if endpoint_map is not None:
        raise TypeError(
            f"endpoint_map only applies when {entry} compiles a {raw_name}; "
            f"this {compiled_name} is already compiled"
        )
    if isinstance(topology, Topology) and compiled.graph is not topology.compiled():
        raise TopologyError(
            f"stale {compiled_name}: compiled against snapshot version "
            f"{compiled.graph.version}, but topology {topology.name!r} now compiles "
            f"to version {topology.compiled().version} — recompile with "
            f"{compile_fn.__name__}()"
        )
    return compiled


def _route_compiled(demand: CompiledDemand, opts: RoutingOptions) -> FlowResult:
    """Route a compiled demand under validated options (the engine proper)."""
    mode, method = opts.mode, opts.method
    if method == "hierarchical":
        from .hierarchical import _route_hierarchical

        return _route_hierarchical(demand, opts)
    graph = demand.graph
    if method == "auto" and mode == "single" and _auto_hierarchical(demand):
        from .hierarchical import AUTO_MESH_CELLS, OverlayTooLarge, _route_hierarchical

        try:
            return _route_hierarchical(demand, opts, mesh_cap=AUTO_MESH_CELLS)
        except OverlayTooLarge:
            pass  # mesh over budget: flat batched routing wins this shape
    use_numpy = _select_backend(graph, opts)
    edge_loads = _zero_column(graph.num_edges, use_numpy)
    groups = _source_groups(demand.sources)
    flows = _route_sources(
        graph,
        graph.edge_weight_column(opts.weight),
        mode,
        use_numpy,
        groups,
        groups,
        demand.targets,
        demand.volumes,
        demand.labels,
        edge_loads,
    )
    routed_volume, routed_pairs, unrouted = _tally(groups, flows, demand.unmatched)
    return FlowResult(
        graph=graph,
        edge_loads=edge_loads,
        routed_volume=routed_volume,
        routed_pairs=routed_pairs,
        unrouted=unrouted,
        mode=mode,
    )


def _auto_hierarchical(demand: CompiledDemand) -> bool:
    """Whether ``method="auto"`` should even consider the overlay path.

    Hierarchical routing pays an overlay build; it wins when many unique
    sources would each cost a full-graph search on a large graph.
    Thresholds live in :mod:`repro.routing.hierarchical` (imported lazily —
    the engine is also the overlay's scatter substrate).
    """
    from .hierarchical import AUTO_MIN_NODES, AUTO_MIN_UNIQUE_SOURCES

    graph = demand.graph
    return (
        graph.num_edges > 0
        and graph.num_nodes >= AUTO_MIN_NODES
        and len(set(demand.sources)) >= AUTO_MIN_UNIQUE_SOURCES
    )


def _select_backend(graph: CompiledGraph, opts: RoutingOptions) -> bool:
    """The flat engine's backend dispatch: True for the numpy path."""
    return resolve_backend(opts.backend) == "numpy" and graph.num_edges > 0


# ----------------------------------------------------------------------
# The per-source loop shared by route_demand, route_series and
# failure_cascade
# ----------------------------------------------------------------------
class _SourceFlow(NamedTuple):
    """One source's share of a routing pass.

    Attributes:
        volume: Volume routed from this source (summed in pair order).
        pairs: Pairs routed from this source.
        unrouted: ``(a, b, volume)`` of its pairs with unreachable targets.
        column: The load column its flow was scattered into; ``None`` when
            the source carried no flow.
    """

    volume: float
    pairs: int
    unrouted: List[Tuple[str, str, float]]
    column: Any


def _source_groups(sources: array) -> Dict[int, List[int]]:
    """Pair positions grouped by source, sources in first-appearance order."""
    groups: Dict[int, List[int]] = {}
    for position, source in enumerate(sources):
        groups.setdefault(source, []).append(position)
    return groups


def _zero_column(length: int, use_numpy: bool) -> Any:
    """A zeroed float column in the chosen backend's array type."""
    if use_numpy:
        return _np.zeros(length, dtype=_np.float64)
    return array("d", [0.0]) * length


def _tally(
    groups: Dict[int, List[int]],
    flows: Dict[int, _SourceFlow],
    unmatched: List[Tuple[str, str, float]],
) -> Tuple[float, int, List[Tuple[str, str, float]]]:
    """Routed volume, routed pairs and unrouted pairs, in source-group order."""
    routed_volume = 0.0
    routed_pairs = 0
    unrouted = list(unmatched)
    for source in groups:
        flow = flows[source]
        routed_volume += flow.volume
        routed_pairs += flow.pairs
        unrouted.extend(flow.unrouted)
    return routed_volume, routed_pairs, unrouted


def _route_sources(
    graph: CompiledGraph,
    weights: Any,
    mode: str,
    use_numpy: bool,
    sources: Iterable[int],
    groups: Dict[int, List[int]],
    targets: array,
    volumes: array,
    labels: List[Tuple[str, str]],
    column: Any = None,
) -> Dict[int, _SourceFlow]:
    """Search each source, gather its pair volumes, and scatter its flow.

    Sources whose ``groups`` positions carry no positive volume are not
    searched.  For every other source, one search (:func:`_searches`) finds
    which targets are reachable; their positive volumes are summed onto the
    target nodes in pair order and scattered down the shortest-path tree
    (single) or DAG (ECMP) into ``column``, or into a fresh column per
    source when ``column`` is None (the temporal engine retains those).
    Returns each source's :class:`_SourceFlow`.
    """
    flows: Dict[int, _SourceFlow] = {}
    active = []
    for source in sources:
        if any(volumes[p] > 0.0 for p in groups[source]):
            active.append(source)
        else:
            flows[source] = _SourceFlow(0.0, 0, [], None)
    scatter_tree = _scatter_tree_numpy if use_numpy else _scatter_tree
    scatter_ecmp = _scatter_ecmp_numpy if use_numpy else _scatter_ecmp
    for source, dist, tree in _searches(graph, weights, mode, use_numpy, active):
        node_flow = _zero_column(graph.num_nodes, use_numpy)
        routed_volume = 0.0
        routed_pairs = 0
        unrouted: List[Tuple[str, str, float]] = []
        for p in groups[source]:
            volume = volumes[p]
            if volume <= 0.0:
                continue
            target = targets[p]
            if dist[target] == inf:
                unrouted.append((*labels[p], volume))
                continue
            node_flow[target] += volume
            routed_volume += volume
            routed_pairs += 1
        KERNEL_COUNTERS.traffic_assigned_pairs += routed_pairs
        into = None
        if routed_pairs:
            into = _zero_column(graph.num_edges, use_numpy) if column is None else column
            if mode == "single":
                scatter_tree(graph, source, tree, node_flow, into)
            else:
                scatter_ecmp(graph, source, dist, weights, node_flow, into)
        flows[source] = _SourceFlow(routed_volume, routed_pairs, unrouted, into)
    return flows


def _searches(
    graph: CompiledGraph, weights: Any, mode: str, use_numpy: bool, sources: List[int]
) -> Iterator[Tuple[int, Any, Any]]:
    """One shortest-path search per source, yielded as ``(source, dist, tree)``.

    ``tree`` is what the single-path scatter reads.  The Python path runs one
    heapq Dijkstra per source in the given order and yields ``(pred,
    pred_edge)``.  The numpy path searches the sources in sorted order, many
    per ``csgraph`` call (chunked to
    :data:`~repro.topology.compiled.BATCH_CHUNK_CELLS` by
    :func:`~repro.topology.compiled._batch_chunks`), and yields the
    predecessor row (``None`` in ECMP mode, which reads distances only).
    Counter accounting is backend-independent: one
    ``traffic_batched_sources`` and one ``single_source`` per source; the
    batches additionally land in ``batch_dijkstra_calls``/
    ``batch_sources_total``.
    """
    if not use_numpy:
        for source in sources:
            dist, pred, pred_edge = dijkstra_indices(graph, source, weights)
            KERNEL_COUNTERS.traffic_batched_sources += 1
            yield source, dist, (pred, pred_edge)
        return
    matrix = graph.scipy_csr(weights)
    need_pred = mode == "single"
    for batch in _batch_chunks(sorted(sources), graph.num_nodes):
        KERNEL_COUNTERS.batch_dijkstra_calls += 1
        KERNEL_COUNTERS.batch_sources_total += len(batch)
        KERNEL_COUNTERS.traffic_batched_sources += len(batch)
        KERNEL_COUNTERS.single_source += len(batch)
        if need_pred:
            dist_rows, pred_rows = _scipy_dijkstra(
                matrix, directed=False, indices=batch, return_predecessors=True
            )
        else:
            dist_rows = _scipy_dijkstra(matrix, directed=False, indices=batch)
            pred_rows = [None] * len(batch)
        yield from zip(batch, dist_rows, pred_rows)


def _scatter_tree(
    graph: CompiledGraph,
    source: int,
    tree: Tuple[List[int], List[int]],
    node_flow: array,
    edge_loads: array,
) -> None:
    """Push per-target volumes down the predecessor tree in one O(V) sweep.

    Processing reached nodes in reverse BFS-over-the-tree order guarantees
    every node is visited after all of its tree children, so each edge
    receives its whole subtree flow with a single addition.
    """
    pred, pred_edge = tree
    children: List[List[int]] = [[] for _ in range(graph.num_nodes)]
    for v, parent in enumerate(pred):
        if parent != -1:
            children[parent].append(v)
    order = [source]
    head = 0
    while head < len(order):
        order.extend(children[order[head]])
        head += 1
    for v in reversed(order):
        flow = node_flow[v]
        if flow != 0.0 and v != source:
            edge_loads[pred_edge[v]] += flow
            node_flow[pred[v]] += flow


def _scatter_ecmp(
    graph: CompiledGraph,
    source: int,
    dist: List[float],
    weights: Any,
    node_flow: array,
    edge_loads: array,
) -> None:
    """Split flow over all tied shortest paths, proportionally to path counts.

    For every reached node the predecessor edges of the shortest-path DAG are
    the incident edges with ``dist[u] + w(e) == dist[v]`` (exact float
    equality — the canonical predecessor always qualifies by construction),
    visited in ascending edge-index order.  Path counts ``sigma`` accumulate
    source-outward; flow then distributes target-inward, each node passing
    ``sigma[u] / sigma[v]`` of its flow to DAG predecessor ``u`` — exactly an
    equal share per tied shortest path (Brandes-style accumulation).
    """
    rows = graph.adjacency_rows()
    weight_values = weights.tolist()
    reached = [v for v in range(graph.num_nodes) if dist[v] != inf]
    reached.sort(key=lambda v: (dist[v], v))
    dag_preds: Dict[int, List[Tuple[int, int]]] = {}
    sigma = [0.0] * graph.num_nodes
    sigma[source] = 1.0
    for v in reached:
        if v == source:
            continue
        preds = [
            (e, u) for u, e in rows[v] if dist[u] != inf and dist[u] + weight_values[e] == dist[v]
        ]
        preds.sort()
        dag_preds[v] = preds
        total = 0.0
        for _, u in preds:
            total += sigma[u]
        sigma[v] = total
    for v in reversed(reached):
        flow = node_flow[v]
        if flow == 0.0 or v == source:
            continue
        preds = dag_preds[v]
        if len(preds) > 1:
            KERNEL_COUNTERS.traffic_ecmp_splits += 1
        sigma_v = sigma[v]
        for e, u in preds:
            share = flow * (sigma[u] / sigma_v)
            edge_loads[e] += share
            node_flow[u] += share


def _scatter_tree_numpy(
    graph: CompiledGraph, source: int, pred: Any, node_flow: Any, edge_loads: Any
) -> None:
    """Vectorized subtree scatter: pointer-doubled depths + level cascade.

    The predecessor array defines the shortest-path tree; tree depth per node
    is computed by pointer doubling (each round squares the ancestor pointer,
    O(V log depth) total), which yields a topological order.  Flow then
    cascades from the deepest level upward: all nodes of one depth push their
    accumulated subtree flow onto their parents with a single ``np.add.at``
    per level, and onto their predecessor edges (unique per level) with a
    vectorized indexed add.
    """
    nodes = _np.arange(n := graph.num_nodes, dtype=_np.int64)
    parent = pred.astype(_np.int64)
    has_parent = parent >= 0
    anchored = _np.where(has_parent, parent, nodes)
    depth = has_parent.astype(_np.int64)
    anc = anchored
    while True:
        anc_next = anc[anc]
        if _np.array_equal(anc_next, anc):
            break
        depth = depth + depth[anc]
        anc = anc_next
    carriers = has_parent  # reached, non-source nodes
    if not carriers.any():
        return
    carrier_nodes = nodes[carriers]
    carrier_edges = graph.edge_ids_for_pairs(parent[carriers], carrier_nodes)
    edge_of = _np.full(n, -1, dtype=_np.int64)
    edge_of[carrier_nodes] = carrier_edges
    max_depth = int(depth[carriers].max())
    for level in range(max_depth, 0, -1):
        vs = carrier_nodes[depth[carriers] == level]
        flows = node_flow[vs]
        active = flows != 0.0
        if not active.any():
            continue
        vs = vs[active]
        flows = flows[active]
        edge_loads[edge_of[vs]] += flows  # pred edges are unique per node
        _np.add.at(node_flow, parent[vs], flows)


def _scatter_ecmp_numpy(
    graph: CompiledGraph,
    source: int,
    dist: Any,
    weights: Any,
    node_flow: Any,
    edge_loads: Any,
) -> None:
    """Vectorized ECMP: edge-wise DAG extraction + distance-level cascade.

    The shortest-path DAG is extracted over all half-edges at once with the
    same exact float predicate as the Python reference
    (``dist[u] + w == dist[v]``).  Path counts (``sigma``) accumulate over
    ascending unique distance levels and flow shares distribute over
    descending levels — valid orderings because the weights are strictly
    positive, so equal-distance nodes can never precede each other in the DAG.
    Shares are accumulated column-wise with ``np.add.at`` per level.
    """
    n = graph.num_nodes
    indptr = _np.asarray(graph.indptr, dtype=_np.int64)
    heads = _np.asarray(graph.indices, dtype=_np.int64)
    half_edges = _np.asarray(graph.half_edge_ids)
    tails = _np.repeat(_np.arange(n, dtype=_np.int64), _np.diff(indptr))
    half_weights = _np.asarray(weights, dtype=_np.float64)[half_edges]
    finite_tail = _np.isfinite(dist[tails])
    dag = finite_tail & (dist[tails] + half_weights == dist[heads])
    dag_tails = tails[dag]
    dag_heads = heads[dag]
    dag_edges = half_edges[dag]
    pred_count = _np.bincount(dag_heads, minlength=n)
    levels = _np.unique(dist[_np.isfinite(dist)])
    head_level = _np.searchsorted(levels, dist[dag_heads])
    order = _np.argsort(head_level, kind="stable")
    dag_tails = dag_tails[order]
    dag_heads = dag_heads[order]
    dag_edges = dag_edges[order]
    head_level = head_level[order]
    bounds = _np.searchsorted(head_level, _np.arange(len(levels) + 1))
    sigma = _np.zeros(n, dtype=_np.float64)
    sigma[source] = 1.0
    for level in range(1, len(levels)):
        lo, hi = bounds[level], bounds[level + 1]
        if lo == hi:
            continue
        _np.add.at(sigma, dag_heads[lo:hi], sigma[dag_tails[lo:hi]])
    for level in range(len(levels) - 1, 0, -1):
        lo, hi = bounds[level], bounds[level + 1]
        if lo == hi:
            continue
        h = dag_heads[lo:hi]
        flows = node_flow[h]
        active = flows != 0.0
        if not active.any():
            continue
        level_nodes = _np.unique(h[active])
        KERNEL_COUNTERS.traffic_ecmp_splits += int((pred_count[level_nodes] > 1).sum())
        shares = flows[active] * sigma[dag_tails[lo:hi]][active] / sigma[h][active]
        _np.add.at(edge_loads, dag_edges[lo:hi][active], shares)
        _np.add.at(node_flow, dag_tails[lo:hi][active], shares)
