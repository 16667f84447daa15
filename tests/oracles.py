"""Seed-era reference implementations that tests and benchmarks compare against.

Each reference is the plain algorithm that a production path in ``repro``
replaced.  The production path must reproduce it exactly, except Waxman's,
which reproduces it in distribution.  Nothing under ``src/`` imports this
module.  Benchmarks import it after putting ``tests/`` on ``sys.path``.

* :func:`per_pair_assign` — one shortest-path resolution per demand pair, the
  reference for :func:`repro.routing.assignment.assign_demand`.
* :func:`naive_waxman` — the O(n^2) pair loop, one draw per pair, the
  reference for :class:`repro.generators.WaxmanGenerator`.
* :func:`linear_weighted_index` — the inverse-CDF linear scan, the reference
  for :class:`repro.generators.FenwickSampler`.
* :func:`scan_fkp` — FKP growth by full scan per arrival.
* :class:`ScanLayeredNetwork` and :func:`scan_cheapest_attachment` — linear
  scans that tests swap in with ``mock.patch.object`` over
  ``repro.core.meyerson._LayeredNetwork`` and
  ``GrowthSimulator._cheapest_attachment``.
"""

from __future__ import annotations

import math
import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.buyatbulk import Customer
from repro.core.evolution import GrowthSimulator
from repro.core.fkp import FKPModel, FKPParameters, hop_centrality
from repro.generators import WaxmanGenerator
from repro.generators.base import ensure_connected
from repro.geography.demand import DemandMatrix
from repro.geography.points import euclidean
from repro.geography.regions import Region, unit_square
from repro.routing.assignment import AssignmentResult
from repro.routing.paths import resolve_weight
from repro.topology.compiled import dijkstra_indices
from repro.topology.graph import Topology


def per_pair_assign(
    topology: Topology,
    demand: DemandMatrix,
    endpoint_map: Optional[Dict[str, Any]] = None,
    weight: Optional[str] = None,
    reset_loads: bool = True,
) -> AssignmentResult:
    """The seed assignment: one shortest-path resolution per demand pair.

    Each source's search runs once (``dijkstra_indices`` on the compiled
    view) and is reused by every pair from that source.  Loads are added link
    by link in pair order, and the node path of every routed pair is recorded
    in ``paths``.
    """
    endpoint_map = endpoint_map or {}
    if reset_loads:
        for link in topology.links():
            link.load = 0.0
    graph = topology.compiled()
    weights = graph.edge_weights(resolve_weight(weight))
    searches: Dict[int, tuple] = {}

    result = AssignmentResult()
    link_loads = result.link_loads
    for a, b, volume in demand.pairs():
        node_a = endpoint_map.get(a, a)
        node_b = endpoint_map.get(b, b)
        if not (topology.has_node(node_a) and topology.has_node(node_b)):
            result.unrouted_pairs.append((a, b, volume))
            continue
        source = graph.index_of[node_a]
        if source not in searches:
            searches[source] = dijkstra_indices(graph, source, weights)
        dist, pred, pred_edge = searches[source]
        current = graph.index_of[node_b]
        if dist[current] == math.inf:
            result.unrouted_pairs.append((a, b, volume))
            continue
        nodes = [node_b]
        edges: List[int] = []
        while current != source:
            edges.append(pred_edge[current])
            current = pred[current]
            nodes.append(graph.ids[current])
        for edge in reversed(edges):
            graph.links[edge].load += volume
            key = graph.edge_keys[edge]
            link_loads[key] = link_loads.get(key, 0.0) + volume
        nodes.reverse()
        result.paths[(a, b)] = nodes
        result.routed_volume += volume
    return result


def naive_waxman(
    generator: WaxmanGenerator, num_nodes: int, seed: Optional[int] = None
) -> Topology:
    """The seed Waxman generator: test every pair with one ``rng.random()`` draw."""
    rng = random.Random(seed)
    region = generator.region or unit_square()
    locations = region.sample_uniform(num_nodes, rng)
    topology = Topology(name=f"waxman-n{num_nodes}")
    for node_id in range(num_nodes):
        topology.add_node(node_id, location=locations[node_id])
    scale = generator.alpha_w * region.diagonal
    for u in range(num_nodes):
        for v in range(u + 1, num_nodes):
            distance = euclidean(locations[u], locations[v])
            if rng.random() < generator.beta * math.exp(-distance / scale):
                topology.add_link(u, v)
    if generator.connect:
        ensure_connected(topology, rng)
    return topology


def linear_weighted_index(weights: Sequence[float], target: float) -> int:
    """Inverse-CDF scan: smallest index whose cumulative weight is >= target.

    This is the seed generators' selection loop.  Returns
    ``len(weights) - 1`` if ``target`` exceeds the total (float edge case).
    """
    cumulative = 0.0
    for index, weight in enumerate(weights):
        cumulative += weight
        if target <= cumulative:
            return index
    return len(weights) - 1


def scan_fkp(parameters: FKPParameters, region: Optional[Region] = None) -> Topology:
    """FKP growth with the hop centrality, scanning every node per arrival.

    ``FKPModel`` indexes only the centrality functions it knows to be static.
    A wrapper around :func:`hop_centrality` has the same values but is not
    one of them, so the model takes its full scan.
    """
    return FKPModel(
        parameters, region=region, centrality=lambda state, j: hop_centrality(state, j)
    ).generate()


class ScanLayeredNetwork:
    """The seed Meyerson layer state: a first-minimum linear scan per query."""

    def __init__(self, region: Region) -> None:
        self.members: Dict[int, List[Any]] = {}
        self.locations: Dict[Any, Tuple[float, float]] = {}

    def add(self, node_id: Any, location: Tuple[float, float], layers: Sequence[int]) -> None:
        self.locations[node_id] = location
        for layer in layers:
            self.members.setdefault(layer, []).append(node_id)

    def nearest_member(
        self, location: Tuple[float, float], layer: int
    ) -> Optional[Tuple[Any, float]]:
        candidates = self.members.get(layer, [])
        if not candidates:
            return None
        best_id = candidates[0]
        best_distance = euclidean(location, self.locations[best_id])
        for node_id in candidates[1:]:
            distance = euclidean(location, self.locations[node_id])
            if distance < best_distance:
                best_distance = distance
                best_id = node_id
        return best_id, best_distance


def scan_cheapest_attachment(
    simulator: GrowthSimulator, topology: Topology, customer: Customer
) -> Optional[Tuple[Any, float]]:
    """The seed cheapest-attachment query: scan every node, first minimum wins.

    A target is feasible while one more link keeps it within every degree
    limit of the simulator's constraints.
    """
    best_target = None
    best_cost = math.inf
    for node in topology.nodes():
        if node.location is None or node.node_id == customer.customer_id:
            continue
        distance = euclidean(customer.location, node.location)
        cost = simulator.catalog.link_cost(customer.demand, distance)
        if cost < best_cost and all(
            topology.degree(node.node_id) + 1 <= constraint.limit_for(node.role)
            for constraint in simulator.constraints.constraints
            if getattr(constraint, "limit_for", None) is not None
        ):
            best_cost = cost
            best_target = node.node_id
    if best_target is None:
        return None
    return best_target, best_cost
