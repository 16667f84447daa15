"""Technical constraints on feasible topologies.

Section 2.1 of the paper: "routers can only be directly connected to a limited
number of neighboring routers due to the limited number of interfaces or line
cards they allow"; together with capacity and budget limits, "these economic
and technical factors place bounds on the network topologies that are feasible
and actually achievable by ISPs."

Constraints are small predicate objects the generators consult when adding
links and the validation harness applies to finished topologies.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..topology.graph import Topology
from ..topology.node import NodeRole


class Constraint(abc.ABC):
    """Interface for feasibility constraints on topologies."""

    name: str = "constraint"

    @abc.abstractmethod
    def violations(self, topology: Topology) -> List[str]:
        """Return human-readable violations (empty when satisfied)."""

    def is_satisfied(self, topology: Topology) -> bool:
        """True when the topology satisfies this constraint."""
        return not self.violations(topology)

    @abc.abstractmethod
    def allows_link(self, topology: Topology, u: Any, v: Any) -> bool:
        """Whether adding a link (u, v) keeps the topology feasible."""


@dataclass
class DegreeConstraint(Constraint):
    """Per-role bound on node degree (router line-card limits).

    Attributes:
        max_degree: Default maximum degree for every node.
        per_role: Optional overrides per node role (e.g. core routers with
            more line cards than access routers).
    """

    max_degree: int = 16
    per_role: Optional[Dict[NodeRole, int]] = None
    name: str = "degree"

    def __post_init__(self) -> None:
        if self.max_degree < 1:
            raise ValueError("max_degree must be >= 1")
        if self.per_role:
            for role, limit in self.per_role.items():
                if limit < 1:
                    raise ValueError(f"limit for {role} must be >= 1")

    def limit_for(self, role: NodeRole) -> int:
        """Degree limit that applies to a given role."""
        if self.per_role and role in self.per_role:
            return self.per_role[role]
        return self.max_degree

    def violations(self, topology: Topology) -> List[str]:
        problems = []
        for node in topology.nodes():
            limit = self.limit_for(node.role)
            degree = topology.degree(node.node_id)
            if degree > limit:
                problems.append(
                    f"node {node.node_id!r} ({node.role.value}) has degree {degree} > {limit}"
                )
        return problems

    def allows_link(self, topology: Topology, u: Any, v: Any) -> bool:
        for endpoint in (u, v):
            node = topology.node(endpoint)
            if topology.degree(endpoint) + 1 > self.limit_for(node.role):
                return False
        return True


@dataclass
class CapacityConstraint(Constraint):
    """Installed link capacity must cover carried load (no overloads)."""

    tolerance: float = 1e-9
    name: str = "capacity"

    def violations(self, topology: Topology) -> List[str]:
        problems = []
        for link in topology.links():
            if link.capacity is not None and link.load > link.capacity + self.tolerance:
                problems.append(
                    f"link {link.key} overloaded: load {link.load:.3f} > capacity {link.capacity:.3f}"
                )
        return problems

    def allows_link(self, topology: Topology, u: Any, v: Any) -> bool:
        # Adding an (unloaded) link can never create an overload.
        return True


@dataclass
class ConstraintSet:
    """A conjunction of constraints applied together."""

    constraints: List[Constraint]

    def violations(self, topology: Topology) -> List[str]:
        """All violations across all member constraints."""
        problems = []
        for constraint in self.constraints:
            problems.extend(constraint.violations(topology))
        return problems

    def is_satisfied(self, topology: Topology) -> bool:
        """True when every member constraint is satisfied."""
        return not self.violations(topology)

    def allows_link(self, topology: Topology, u: Any, v: Any) -> bool:
        """True when every member constraint allows the candidate link."""
        return all(c.allows_link(topology, u, v) for c in self.constraints)


def default_router_constraints() -> ConstraintSet:
    """A realistic default constraint set for router-level design.

    Core routers get more interfaces than access equipment, and loads must
    respect installed capacity.
    """
    return ConstraintSet(
        constraints=[
            DegreeConstraint(
                max_degree=8,
                per_role={
                    NodeRole.CORE: 32,
                    NodeRole.BACKBONE: 24,
                    NodeRole.PEERING: 24,
                    NodeRole.DISTRIBUTION: 16,
                    NodeRole.ACCESS: 48,
                    NodeRole.CUSTOMER: 4,
                },
            ),
            CapacityConstraint(),
        ]
    )
