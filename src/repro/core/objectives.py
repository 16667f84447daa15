"""Objective formulations for the optimization-driven framework.

Section 2.2 of the paper: "In a cost-based formulation, the basic optimization
problem is to build a network that minimizes cost subject to satisfying
traffic demand.  Alternatively, a profit-based formulation seeks to build a
network that satisfies demand only up to the point of profitability."

Objectives are first-class objects so that the ISP generator and the ablation
benchmarks can swap them without touching the design algorithms.

Every ``evaluate`` here is the *canonical* full recomputation — O(V + E) per
call, counted in ``KERNEL_COUNTERS.objective_full_evals``.  The optimization
hot loops (local search, the ISP design iterations, growth simulation) instead
evaluate candidate *moves* in O(Δ) through
:class:`repro.optimization.incremental.IncrementalState`, which maintains the
same cost components incrementally and is property-tested against these
functions.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Optional

from ..economics.cables import CableCatalog, default_catalog
from ..economics.cost_model import CostModel
from ..economics.profit_model import RevenueModel
from ..topology.compiled import KERNEL_COUNTERS, multi_source_bfs_indices
from ..topology.graph import Topology
from ..topology.node import NodeRole


class Objective(abc.ABC):
    """Interface for objectives evaluated on candidate topologies.

    Objectives are *minimized* by the design algorithms; profit-style
    objectives therefore return the negated profit.
    """

    name: str = "objective"

    @abc.abstractmethod
    def evaluate(self, topology: Topology) -> float:
        """Scalar score of a candidate topology (lower is better)."""


@dataclass
class CostObjective(Objective):
    """Minimize total build-out cost (cable installation + usage + equipment).

    Attributes:
        catalog: Cable catalog used to price unannotated links.
        cost_model: Full cost model; constructed from ``catalog`` when omitted.
        demand_penalty: Penalty per unit of unserved demand, charged for
            customer nodes that are disconnected from every core node.  This
            turns the "subject to satisfying traffic demand" constraint into a
            soft penalty so that partial designs can still be compared.
    """

    catalog: CableCatalog = field(default_factory=default_catalog)
    cost_model: Optional[CostModel] = None
    demand_penalty: float = 1e6
    name: str = "cost"

    def __post_init__(self) -> None:
        if self.cost_model is None:
            self.cost_model = CostModel(catalog=self.catalog)
        if self.demand_penalty < 0:
            raise ValueError("demand_penalty must be non-negative")

    def evaluate(self, topology: Topology) -> float:
        KERNEL_COUNTERS.objective_full_evals += 1
        cost = self.cost_model.total_cost(topology)
        cost += self.demand_penalty * unserved_demand(topology)
        return cost


@dataclass
class ProfitObjective(Objective):
    """Maximize profit: revenue from served customers minus build-out cost.

    Returned values are negated profit so that the common "minimize" interface
    applies.  Customers disconnected from every core simply earn no revenue
    (they are not penalized beyond their lost revenue), which is exactly the
    "build only up to the point of profitability" behaviour.
    """

    catalog: CableCatalog = field(default_factory=default_catalog)
    revenue_model: RevenueModel = field(default_factory=RevenueModel)
    cost_model: Optional[CostModel] = None
    name: str = "profit"

    def __post_init__(self) -> None:
        if self.cost_model is None:
            self.cost_model = CostModel(catalog=self.catalog)

    def evaluate(self, topology: Topology) -> float:
        KERNEL_COUNTERS.objective_full_evals += 1
        cost = self.cost_model.total_cost(topology)
        revenue = 0.0
        served = served_customers(topology)
        for node in topology.nodes():
            if node.role == NodeRole.CUSTOMER and node.node_id in served:
                revenue += self.revenue_model.revenue_for_demand(node.demand)
        return cost - revenue


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
