"""Cost-based objective accounting for annotated topologies.

The paper's cost-based formulation (Section 2.2) "builds a network that
minimizes cost subject to satisfying traffic demand".  This module provides
the cost accounting used by that formulation: per-link cost built from fixed
installation and marginal usage components, plus equipment costs per node
role, aggregated over a topology.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..topology.graph import Topology
from ..topology.node import NodeRole
from .cables import CableCatalog


#: Default equipment cost charged per node, by role (synthetic but ordered:
#: core routers are the most expensive, customer equipment is not paid by the ISP).
DEFAULT_NODE_COSTS: Dict[NodeRole, float] = {
    NodeRole.CORE: 500.0,
    NodeRole.BACKBONE: 250.0,
    NodeRole.PEERING: 250.0,
    NodeRole.DISTRIBUTION: 80.0,
    NodeRole.ACCESS: 25.0,
    NodeRole.CUSTOMER: 0.0,
    NodeRole.GENERIC: 0.0,
}


@dataclass
class CostBreakdown:
    """Cost of a topology broken into its components.

    Attributes:
        link_install: Total fixed installation cost over links.
        link_usage: Total marginal usage cost (cost rate times carried load).
        node_equipment: Total equipment cost over nodes.
    """

    link_install: float = 0.0
    link_usage: float = 0.0
    node_equipment: float = 0.0

    @property
    def total(self) -> float:
        """Grand total cost."""
        return self.link_install + self.link_usage + self.node_equipment


@dataclass
class CostModel:
    """Computes the cost of an annotated topology.

    Args:
        catalog: Optional cable catalog; when provided and a link carries no
            explicit installation cost, the catalog's cost envelope for the
            link's load and length is used instead.
        node_costs: Equipment cost per node role; defaults to
            :data:`DEFAULT_NODE_COSTS`.
        fiber_cost_per_length: Right-of-way cost per unit length added to
            every link regardless of cable choice.
    """

    catalog: Optional[CableCatalog] = None
    node_costs: Dict[NodeRole, float] = field(
        default_factory=lambda: dict(DEFAULT_NODE_COSTS)
    )
    fiber_cost_per_length: float = 0.0

    def link_contribution(self, link) -> Tuple[float, float]:
        """One link's ``(install, usage)`` contribution to the breakdown.

        Links that already carry explicit ``install_cost``/``usage_cost``
        annotations are charged exactly those; links without annotations fall
        back to the catalog envelope applied to their current load and length.
        This is the single source of truth for per-link pricing — both the
        full :meth:`evaluate` sweep and the incremental objective engine
        (:mod:`repro.optimization.incremental`) charge links through it, so
        delta and full evaluations can never disagree on a link's price.
        """
        annotated = link.install_cost > 0 or link.usage_cost > 0
        if annotated or self.catalog is None:
            install = link.install_cost
            usage = link.usage_cost * link.load
        else:
            install = self.catalog.link_cost(link.load, link.length)
            usage = 0.0
        return install + self.fiber_cost_per_length * link.length, usage

    def node_contribution(self, node) -> float:
        """One node's equipment cost contribution to the breakdown."""
        return self.node_costs.get(node.role, 0.0)

    def evaluate(self, topology: Topology) -> CostBreakdown:
        """Compute the cost breakdown of a topology.

        Per-link charging rules live in :meth:`link_contribution`.
        """
        breakdown = CostBreakdown()
        for link in topology.links():
            install, usage = self.link_contribution(link)
            breakdown.link_install += install
            breakdown.link_usage += usage
        for node in topology.nodes():
            breakdown.node_equipment += self.node_contribution(node)
        return breakdown

    def total_cost(self, topology: Topology) -> float:
        """Total cost of a topology (convenience wrapper over :meth:`evaluate`)."""
        return self.evaluate(topology).total
