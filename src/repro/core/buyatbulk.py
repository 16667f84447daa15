"""The buy-at-bulk network access design problem (paper Section 4.1).

Problem statement, as given in the paper: "construct a graph that connects
some number of spatially distributed customers to a set of central (core)
nodes, using a combination of cables that satisfies the traffic needs of the
customers and incurs the lowest overall cost to the ISP", where the cables
come from a catalog exhibiting economies of scale.  The single-sink version
(one core node) is the Salman et al. / Andrews–Zhang access network design
problem, known to be NP-hard.

This module defines:

* :class:`BuyAtBulkInstance` — customers (locations + demands), core node(s),
  and a :class:`~repro.economics.cables.CableCatalog`;
* :class:`BuyAtBulkSolution` — a tree (or forest) topology routing every
  customer's demand to a core, with per-link flows and a full cost breakdown;
* deterministic baselines: direct-star connection, MST routing, and a greedy
  aggregation heuristic — the comparators for the Meyerson-style randomized
  incremental algorithm in :mod:`repro.core.meyerson`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..economics.cables import CableCatalog, default_catalog
from ..geography.points import euclidean
from ..geography.regions import Region, metro_region
from ..optimization.mst import prim_mst_points
from ..topology.graph import Topology
from ..topology.node import NodeRole


@dataclass(frozen=True)
class Customer:
    """A customer site to be connected to the network.

    Attributes:
        customer_id: Unique identifier.
        location: ``(x, y)`` coordinates.
        demand: Traffic demand that must be routed to a core node.
    """

    customer_id: Any
    location: Tuple[float, float]
    demand: float = 1.0

    def __post_init__(self) -> None:
        if not 0 <= self.demand < math.inf:
            raise ValueError(f"customer demand must be non-negative and finite, got {self.demand}")


@dataclass
class BuyAtBulkInstance:
    """An instance of the buy-at-bulk access design problem.

    Attributes:
        customers: The customer sites.
        core_locations: Locations of the core (sink) nodes; the classic
            single-sink problem has exactly one.
        catalog: Cable catalog with economies of scale.
        region: The geographic region (used for reporting and plotting only).
    """

    customers: List[Customer]
    core_locations: List[Tuple[float, float]] = field(default_factory=lambda: [(0.5, 0.5)])
    catalog: CableCatalog = field(default_factory=default_catalog)
    region: Optional[Region] = None

    def __post_init__(self) -> None:
        if not self.customers:
            raise ValueError("instance must have at least one customer")
        if not self.core_locations:
            raise ValueError("instance must have at least one core location")
        ids = [c.customer_id for c in self.customers]
        if len(ids) != len(set(ids)):
            raise ValueError("customer ids must be unique")

    @property
    def total_demand(self) -> float:
        """Total customer demand."""
        return sum(c.demand for c in self.customers)

    def customer_locations(self) -> List[Tuple[float, float]]:
        """Customer locations in instance order."""
        return [c.location for c in self.customers]

    def nearest_core(self, location: Tuple[float, float]) -> Tuple[int, float]:
        """Index of and distance to the core node closest to ``location``."""
        best_index = 0
        best_distance = euclidean(location, self.core_locations[0])
        for index in range(1, len(self.core_locations)):
            distance = euclidean(location, self.core_locations[index])
            if distance < best_distance:
                best_distance = distance
                best_index = index
        return best_index, best_distance


def random_instance(
    num_customers: int,
    seed: Optional[int] = None,
    region: Optional[Region] = None,
    catalog: Optional[CableCatalog] = None,
    demand_range: Tuple[float, float] = (1.0, 10.0),
    clustered: bool = False,
    num_clusters: int = 5,
    core_at_center: bool = True,
) -> BuyAtBulkInstance:
    """Generate a random single-sink instance in a metro region.

    Mirrors the "fictitious, yet realistic" setup of the paper's preliminary
    investigation: customers scattered (uniformly or in clusters) over a metro
    area, demands drawn uniformly from ``demand_range``, a single core node.
    """
    if num_customers < 1:
        raise ValueError("num_customers must be >= 1")
    low, high = demand_range
    if not 0 <= low <= high < math.inf:
        raise ValueError(f"demand_range must satisfy 0 <= low <= high < inf, got {demand_range}")
    rng = random.Random(seed)
    region = region or metro_region()
    catalog = catalog or default_catalog()
    if clustered:
        locations = region.sample_clustered(num_customers, num_clusters, rng)
    else:
        locations = region.sample_uniform(num_customers, rng)
    customers = [
        Customer(customer_id=f"cust{i}", location=locations[i], demand=rng.uniform(low, high))
        for i in range(num_customers)
    ]
    core = region.center if core_at_center else region.sample_uniform(1, rng)[0]
    return BuyAtBulkInstance(
        customers=customers, core_locations=[core], catalog=catalog, region=region
    )


# ----------------------------------------------------------------------
# Solution representation
# ----------------------------------------------------------------------
CORE_ID_PREFIX = "core"


def core_node_id(index: int) -> str:
    """Node identifier used for the ``index``-th core node."""
    return f"{CORE_ID_PREFIX}{index}"


@dataclass
class BuyAtBulkSolution:
    """A solution to a buy-at-bulk instance.

    Attributes:
        instance: The instance being solved.
        topology: The access network: customer nodes (ids equal to customer
            ids), core nodes (``core0``, ``core1``, ...), optional Steiner
            nodes, and links annotated with load, cable, and costs.
        algorithm: Name of the algorithm that produced the solution.
    """

    instance: BuyAtBulkInstance
    topology: Topology
    algorithm: str

    def validate(self) -> List[str]:
        """Structural checks: every customer present and connected to a core."""
        problems = list(self.topology.validate())
        core_ids = [
            core_node_id(i) for i in range(len(self.instance.core_locations))
            if self.topology.has_node(core_node_id(i))
        ]
        if not core_ids:
            problems.append("no core node present in the solution")
            return problems
        reachable = set()
        for core in core_ids:
            reachable.update(self.topology.bfs_order(core))
        for customer in self.instance.customers:
            if not self.topology.has_node(customer.customer_id):
                problems.append(f"customer {customer.customer_id!r} missing from solution")
            elif customer.customer_id not in reachable:
                problems.append(f"customer {customer.customer_id!r} not connected to a core")
        return problems

    def is_feasible(self) -> bool:
        """True when :meth:`validate` finds no problems."""
        return not self.validate()

    def total_cost(self) -> float:
        """Total (installation + usage) cost of the solution topology."""
        return self.topology.total_cost()


def route_tree_flows(
    topology: Topology, instance: BuyAtBulkInstance
) -> Dict[Tuple[Any, Any], float]:
    """Compute per-link flows when every customer routes to its nearest core over a tree.

    The topology must be a forest in which every customer can reach at least
    one core node.  Each customer's demand follows the unique tree path to the
    closest (in hops) core.  Link loads are written back onto the topology and
    also returned keyed by canonical edge key.
    """
    core_ids = [
        core_node_id(i)
        for i in range(len(instance.core_locations))
        if topology.has_node(core_node_id(i))
    ]
    if not core_ids:
        raise ValueError("topology has no core nodes")

    # Hop distance from every node to its nearest core.
    best_dist: Dict[Any, int] = {}
    parent_toward_core: Dict[Any, Any] = {}
    for core in core_ids:
        dist = topology.hop_distances(core)
        for node_id, d in dist.items():
            if node_id not in best_dist or d < best_dist[node_id]:
                best_dist[node_id] = d

    # For each node, pick a neighbor strictly closer to a core as its uplink.
    for node_id in topology.node_ids():
        if node_id in core_ids or node_id not in best_dist:
            continue
        for neighbor in topology.neighbors(node_id):
            if best_dist.get(neighbor, float("inf")) < best_dist[node_id]:
                parent_toward_core[node_id] = neighbor
                break

    for link in topology.links():
        link.load = 0.0

    flows: Dict[Tuple[Any, Any], float] = {}
    for customer in instance.customers:
        node_id = customer.customer_id
        if node_id not in best_dist:
            raise ValueError(f"customer {node_id!r} cannot reach any core node")
        current = node_id
        steps = 0
        limit = topology.num_nodes + 1
        while current not in core_ids:
            uplink = parent_toward_core.get(current)
            if uplink is None:
                raise ValueError(f"no uplink found from {current!r} toward a core")
            link = topology.link(current, uplink)
            link.load += customer.demand
            flows[link.key] = flows.get(link.key, 0.0) + customer.demand
            current = uplink
            steps += 1
            if steps > limit:
                raise ValueError("routing loop detected; topology is not a valid tree")
    return flows


def provision_solution(
    topology: Topology, instance: BuyAtBulkInstance
) -> None:
    """Route flows over the tree and install the cheapest adequate cables in place."""
    route_tree_flows(topology, instance)
    catalog = instance.catalog
    for link in topology.links():
        link.cable, link.capacity, link.install_cost, link.usage_cost = catalog.installation(
            link.load, link.length
        )


def _base_topology(instance: BuyAtBulkInstance, name: str) -> Topology:
    """Topology containing the core and customer nodes of an instance (no links)."""
    topology = Topology(name=name)
    for index, location in enumerate(instance.core_locations):
        topology.add_node(core_node_id(index), role=NodeRole.CORE, location=location)
    for customer in instance.customers:
        topology.add_node(
            customer.customer_id,
            role=NodeRole.CUSTOMER,
            location=customer.location,
            demand=customer.demand,
        )
    return topology


# ----------------------------------------------------------------------
# Deterministic baselines
# ----------------------------------------------------------------------
def solve_direct_star(instance: BuyAtBulkInstance) -> BuyAtBulkSolution:
    """Connect every customer directly to its nearest core node.

    This is the no-aggregation baseline: optimal when costs are purely linear
    in flow (no economies of scale), badly suboptimal otherwise.
    """
    topology = _base_topology(instance, "buyatbulk-direct-star")
    for customer in instance.customers:
        core_index, _ = instance.nearest_core(customer.location)
        topology.add_link(customer.customer_id, core_node_id(core_index))
    provision_solution(topology, instance)
    return BuyAtBulkSolution(instance=instance, topology=topology, algorithm="direct-star")


def solve_mst_routing(instance: BuyAtBulkInstance) -> BuyAtBulkSolution:
    """Build the Euclidean MST over customers + cores and route demand over it.

    The MST minimizes total fiber length but ignores the cable cost structure;
    it serves as the "pure distance minimization" baseline.
    """
    topology = _base_topology(instance, "buyatbulk-mst")
    points: List[Tuple[float, float]] = []
    ids: List[Any] = []
    for index, location in enumerate(instance.core_locations):
        points.append(location)
        ids.append(core_node_id(index))
    for customer in instance.customers:
        points.append(customer.location)
        ids.append(customer.customer_id)
    for u, v in prim_mst_points(points):
        topology.add_link(ids[u], ids[v])
    provision_solution(topology, instance)
    return BuyAtBulkSolution(instance=instance, topology=topology, algorithm="mst-routing")


def solve_greedy_aggregation(instance: BuyAtBulkInstance) -> BuyAtBulkSolution:
    """Greedy incremental aggregation heuristic.

    Customers are processed in decreasing order of demand; each attaches to
    the point (core or already-connected customer) minimizing the marginal
    cable cost of carrying its demand over the new link, approximating the
    cost-sharing intuition behind buy-at-bulk approximation algorithms but
    without randomization.
    """
    topology = _base_topology(instance, "buyatbulk-greedy")
    catalog = instance.catalog
    connected: List[Any] = [core_node_id(i) for i in range(len(instance.core_locations))]
    order = sorted(instance.customers, key=lambda c: c.demand, reverse=True)
    for customer in order:
        best_target = None
        best_cost = float("inf")
        for target in connected:
            target_location = topology.node(target).location
            distance = euclidean(customer.location, target_location)
            cost = catalog.link_cost(customer.demand, distance)
            if cost < best_cost:
                best_cost = cost
                best_target = target
        topology.add_link(customer.customer_id, best_target)
        connected.append(customer.customer_id)
    provision_solution(topology, instance)
    return BuyAtBulkSolution(instance=instance, topology=topology, algorithm="greedy-aggregation")


def trivial_lower_bound(instance: BuyAtBulkInstance) -> float:
    """A simple lower bound on the optimal cost of an instance.

    Each customer's demand must traverse at least the straight-line distance
    to the nearest core, paying at least the catalog's best marginal rate per
    unit flow per unit length, and the network must contain at least a
    spanning structure paying the cheapest installation rate over the
    Euclidean MST length.  The bound is the larger of the two components'
    sum and either part alone (both are individually valid).
    """
    catalog = instance.catalog
    best_marginal = min(cable.usage_cost for cable in catalog)
    routing_bound = sum(
        customer.demand * instance.nearest_core(customer.location)[1] * best_marginal
        for customer in instance.customers
    )
    points = [instance.core_locations[0]] + instance.customer_locations()
    from ..optimization.mst import euclidean_mst_length

    cheapest_install = min(cable.install_cost for cable in catalog)
    install_bound = euclidean_mst_length(points) * cheapest_install
    return max(routing_bound + install_bound, routing_bound, install_bound)
