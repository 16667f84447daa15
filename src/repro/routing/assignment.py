"""Traffic assignment: route a demand matrix and accumulate link loads.

:func:`assign_demand` runs the vectorized traffic engine
(:mod:`repro.routing.engine`): endpoint names are resolved once into a
:class:`~repro.routing.engine.CompiledDemand`, one shortest-path search runs
per unique source, and volumes scatter onto a per-edge load column that is
flushed back to ``Link.load`` in a single pass.  ``mode="ecmp"`` additionally
splits each pair's volume equally over tied shortest paths.
:func:`route_customer_demand_to_core` routes the access-traffic pattern with
one multi-source search from every core.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from typing import Any, Dict, List, Optional, Tuple

from ..geography.demand import DemandMatrix
from ..topology.compiled import multi_source_dijkstra_indices
from ..topology.graph import Topology
from .engine import route_demand
from .paths import resolve_weight


@dataclass
class AssignmentResult:
    """Result of routing a demand matrix over a topology.

    Attributes:
        routed_volume: Total demand successfully routed.
        unrouted_pairs: Demand pairs with no path, with their volumes.
        link_loads: Load per canonical link key after assignment.
        paths: The node path used for each routed customer-to-core pair,
            recorded by :func:`route_customer_demand_to_core` only
            (:func:`assign_demand` never resolves per-pair paths; that is
            what makes it fast).
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
        mode: ``"single"`` or ``"ecmp"`` flow splitting.
        backend: Kernel backend (see :func:`repro.routing.engine.route_demand`).

    Returns:
        An :class:`AssignmentResult`; unrouted pairs (missing nodes or
        disconnected endpoints) are recorded rather than raising.
    """
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
