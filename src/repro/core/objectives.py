"""Objective formulations for the optimization-driven framework.

Section 2.2 of the paper: "In a cost-based formulation, the basic optimization
problem is to build a network that minimizes cost subject to satisfying
traffic demand.  Alternatively, a profit-based formulation seeks to build a
network that satisfies demand only up to the point of profitability."

Both formulations price a design the same way: every link pays for its
cable (:meth:`CostObjective.link_contribution`), every node pays the
equipment cost of its role (:data:`NODE_COSTS`), and the profit formulation
earns :func:`revenue` from every customer some core reaches.

Every ``evaluate`` here is the *canonical* full recomputation — O(V + E) per
call, counted in ``KERNEL_COUNTERS.objective_full_evals``.  The optimization
hot loops (local search, the ISP design iterations, growth simulation) instead
evaluate candidate *moves* in O(Δ) through
:class:`repro.optimization.incremental.IncrementalState`, which maintains the
same cost components incrementally and is property-tested against these
functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..economics.cables import CableCatalog, default_catalog
from ..topology.compiled import KERNEL_COUNTERS, multi_source_bfs_indices
from ..topology.graph import Topology
from ..topology.link import Link
from ..topology.node import NodeRole

#: Equipment cost charged per node, by role (synthetic but ordered: core
#: routers are the most expensive, customer equipment is not paid by the ISP).
NODE_COSTS: Dict[NodeRole, float] = {
    NodeRole.CORE: 500.0,
    NodeRole.BACKBONE: 250.0,
    NodeRole.PEERING: 250.0,
    NodeRole.DISTRIBUTION: 80.0,
    NodeRole.ACCESS: 25.0,
    NodeRole.CUSTOMER: 0.0,
    NodeRole.GENERIC: 0.0,
}
#: Cost per unit of demand of a customer that no core reaches.  It turns the
#: cost formulation's "subject to satisfying traffic demand" into a soft
#: penalty, so that partial designs can still be compared.
UNSERVED_PENALTY = 1e6
#: Flat revenue per served customer.
SUBSCRIPTION = 10.0
#: Revenue per unit of a served customer's demand.
PRICE_PER_UNIT = 1.0


def revenue(demand: float) -> float:
    """Revenue earned by serving a customer with the given demand."""
    if demand < 0:
        raise ValueError(f"demand must be non-negative, got {demand}")
    return SUBSCRIPTION + demand * PRICE_PER_UNIT


@dataclass
class CostObjective:
    """Minimize total build-out cost (cable installation + usage + equipment).

    Demand that no core reaches costs :data:`UNSERVED_PENALTY` per unit.
    Objectives are *minimized* by the design algorithms.

    Attributes:
        catalog: Cable catalog used to price unannotated links.
    """

    catalog: CableCatalog = field(default_factory=default_catalog)

    def link_contribution(self, link: Link) -> Tuple[float, float]:
        """One link's ``(install, usage)`` cost.

        A link that carries ``install_cost``/``usage_cost`` annotations is
        charged exactly those; any other link is charged the catalog envelope
        for its current load and length.  Both the full :meth:`evaluate` and
        the incremental objective engine price links through this method, so
        delta and full evaluations never disagree on a link's price.
        """
        if link.install_cost > 0 or link.usage_cost > 0:
            return link.install_cost, link.usage_cost * link.load
        return self.catalog.link_cost(link.load, link.length), 0.0

    def cost(self, topology: Topology) -> float:
        """Total build-out cost: link installation, link usage, node equipment."""
        install = 0.0
        usage = 0.0
        for link in topology.links():
            link_install, link_usage = self.link_contribution(link)
            install += link_install
            usage += link_usage
        equipment = 0.0
        for node in topology.nodes():
            equipment += NODE_COSTS.get(node.role, 0.0)
        return install + usage + equipment

    def evaluate(self, topology: Topology) -> float:
        """Scalar score of a candidate topology (lower is better)."""
        KERNEL_COUNTERS.objective_full_evals += 1
        return self.cost(topology) + UNSERVED_PENALTY * unserved_demand(topology)


class ProfitObjective(CostObjective):
    """Maximize profit: revenue from served customers minus build-out cost.

    Returned values are negated profit so that the common "minimize" interface
    applies.  Customers disconnected from every core simply earn no revenue
    (they are not penalized beyond their lost revenue), which is exactly the
    "build only up to the point of profitability" behaviour.
    """

    def evaluate(self, topology: Topology) -> float:
        KERNEL_COUNTERS.objective_full_evals += 1
        cost = self.cost(topology)
        earned = 0.0
        served = served_customers(topology)
        for node in topology.nodes():
            if node.role == NodeRole.CUSTOMER and node.node_id in served:
                earned += revenue(node.demand)
        return cost - earned


def unserved_demand(topology: Topology) -> float:
    """Total demand of customer nodes that cannot reach any core node."""
    served = served_customers(topology)
    return sum(
        node.demand
        for node in topology.nodes()
        if node.role == NodeRole.CUSTOMER and node.node_id not in served
    )


def served_customers(topology: Topology) -> set:
    """Identifiers of customer nodes connected (by any path) to a core node.

    One multi-source BFS from every core over the compiled graph, instead of
    one BFS per core.
    """
    cores = [n.node_id for n in topology.nodes() if n.role == NodeRole.CORE]
    if not cores:
        return set()
    graph = topology.compiled()
    index_of = graph.index_of
    dist = multi_source_bfs_indices(graph, [index_of[c] for c in cores])
    return {
        node.node_id
        for node in topology.nodes()
        if node.role == NodeRole.CUSTOMER and dist[index_of[node.node_id]] != -1
    }
