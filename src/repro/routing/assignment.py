"""Traffic assignment: route a demand matrix and accumulate link loads.

Two implementations share the :class:`AssignmentResult` boundary:

* ``method="batched"`` (default) runs the vectorized traffic engine
  (:mod:`repro.routing.engine`): endpoint names are resolved once into a
  :class:`~repro.routing.engine.CompiledDemand`, one shortest-path search
  runs per unique source, and volumes scatter onto a per-edge load column
  that is flushed back to ``Link.load`` in a single pass.  ``mode="ecmp"``
  additionally splits each pair's volume equally over tied shortest paths.
* ``method="per-pair"`` is the seed implementation — one
  :class:`~repro.routing.paths.PathCache` path resolution per pair with
  per-link object accumulation — kept as the equivalence reference the
  property tests and ``benchmarks/bench_traffic.py`` compare against, and
  the only mode that records per-pair node paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from typing import Any, Dict, List, Optional, Tuple

from ..geography.demand import DemandMatrix
from ..topology.compiled import multi_source_dijkstra_indices
from ..topology.graph import Topology
from .engine import route_demand
from .paths import PathCache, resolve_weight


@dataclass
class AssignmentResult:
    """Result of routing a demand matrix over a topology.

    Attributes:
        routed_volume: Total demand successfully routed.
        unrouted_pairs: Demand pairs with no path, with their volumes.
        link_loads: Load per canonical link key after assignment.
        paths: The node path used for each routed (a, b) pair — recorded by
            the per-pair reference only (the batched engine never resolves
            per-pair paths; that is what makes it fast).
    """

    routed_volume: float = 0.0
    unrouted_pairs: List[Tuple[str, str, float]] = field(default_factory=list)
    link_loads: Dict[Tuple[Any, Any], float] = field(default_factory=dict)
    paths: Dict[Tuple[str, str], List[Any]] = field(default_factory=dict)

    @property
    def unrouted_volume(self) -> float:
        """Total demand that could not be routed."""
        return sum(volume for _, _, volume in self.unrouted_pairs)


def assign_demand(
    topology: Topology,
    demand: DemandMatrix,
    endpoint_map: Optional[Dict[str, Any]] = None,
    weight: Optional[str] = None,
    reset_loads: bool = True,
    method: str = "batched",
    mode: str = "single",
    backend: Optional[str] = None,
) -> AssignmentResult:
    """Route every demand pair over shortest paths and add loads to links.

    Args:
        topology: Topology whose link ``load`` fields receive the traffic.
        demand: Demand matrix between named endpoints.
        endpoint_map: Maps demand endpoint names to topology node ids
            (identity mapping when omitted).
        weight: Named weight function for path selection (default: length).
        reset_loads: Zero all link loads before assignment.
        method: ``"batched"`` (the engine) or ``"per-pair"`` (the reference).
        mode: ``"single"`` or ``"ecmp"`` flow splitting (batched only).
        backend: Kernel backend for the batched engine (see
            :func:`repro.routing.engine.route_demand`); ignored by
            ``method="per-pair"``, which is always pure Python.

    Returns:
        An :class:`AssignmentResult`; unrouted pairs (missing nodes or
        disconnected endpoints) are recorded rather than raising.
    """
    if method == "batched":
        flow = route_demand(
            topology,
            demand,
            weight=weight,
            mode=mode,
            backend=backend,
            endpoint_map=endpoint_map,
        )
        flow.flush(reset=reset_loads)
        return AssignmentResult(
            routed_volume=flow.routed_volume,
            unrouted_pairs=flow.unrouted,
            link_loads=flow.link_loads(),
        )
    if method != "per-pair":
        raise ValueError(f"unknown assignment method {method!r}")
    if mode != "single":
        raise ValueError("per-pair assignment only supports mode='single'")
    return _assign_demand_per_pair(topology, demand, endpoint_map, weight, reset_loads)


def _assign_demand_per_pair(
    topology: Topology,
    demand: DemandMatrix,
    endpoint_map: Optional[Dict[str, Any]],
    weight: Optional[str],
    reset_loads: bool,
) -> AssignmentResult:
    """The seed per-pair path: one cached path resolution per demand pair."""
    endpoint_map = endpoint_map or {}
    cache = PathCache(topology, resolve_weight(weight))
    if reset_loads:
        for link in topology.links():
            link.load = 0.0

    result = AssignmentResult()
    link_loads = result.link_loads
    for a, b, volume in demand.pairs():
        node_a = endpoint_map.get(a, a)
        node_b = endpoint_map.get(b, b)
        if not (topology.has_node(node_a) and topology.has_node(node_b)):
            result.unrouted_pairs.append((a, b, volume))
            continue
        routed = cache.route(node_a, node_b)
        if routed is None:
            result.unrouted_pairs.append((a, b, volume))
            continue
        # Link objects come resolved from the predecessor tree: one pass per
        # path instead of a repr-keyed topology.link(u, v) lookup per hop.
        for link, key in zip(routed.links, routed.keys):
            link.load += volume
            link_loads[key] = link_loads.get(key, 0.0) + volume
        result.paths[(a, b)] = routed.nodes
        result.routed_volume += volume
    return result


def route_customer_demand_to_core(
    topology: Topology, weight: Optional[str] = None, reset_loads: bool = True
) -> AssignmentResult:
    """Route every customer node's demand to its nearest core node.

    This is the access-traffic pattern of the paper's formulations: customers
    send/receive through the ISP core rather than to each other directly.
    Implemented as a *single* multi-source Dijkstra growing from all cores at
    once (ties go to the core listed first), instead of one single-source
    search per (customer, core) pair.
    """
    from ..topology.node import NodeRole

    cores = [n.node_id for n in topology.nodes() if n.role == NodeRole.CORE]
    customers = [n for n in topology.nodes() if n.role == NodeRole.CUSTOMER and n.demand > 0]
    if reset_loads:
        for link in topology.links():
            link.load = 0.0
    result = AssignmentResult()
    if not cores:
        result.unrouted_pairs = [(str(c.node_id), "<no-core>", c.demand) for c in customers]
        return result

    graph = topology.compiled()
    weights = graph.edge_weights(resolve_weight(weight))
    core_indices = [graph.index_of[core] for core in cores]
    dist, pred, pred_edge, origin = multi_source_dijkstra_indices(graph, core_indices, weights)
    ids = graph.ids
    edge_keys = graph.edge_keys
    edge_links = graph.links
    link_loads = result.link_loads
    for customer in customers:
        customer_index = graph.index_of[customer.node_id]
        if dist[customer_index] == inf:
            result.unrouted_pairs.append((str(customer.node_id), "<unreachable>", customer.demand))
            continue
        # The predecessor tree is rooted at the cores, so walking it from the
        # customer yields the customer→core path directly, links included.
        path = [customer.node_id]
        current = customer_index
        volume = customer.demand
        while pred[current] != -1:
            edge = pred_edge[current]
            edge_links[edge].load += volume
            key = edge_keys[edge]
            link_loads[key] = link_loads.get(key, 0.0) + volume
            current = pred[current]
            path.append(ids[current])
        best_core = ids[origin[customer_index]]
        result.paths[(str(customer.node_id), str(best_core))] = path
        result.routed_volume += volume
    return result
