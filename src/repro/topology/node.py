"""Node model for annotated network topologies.

The paper (Section 1, footnote 1) insists that "topology" means connectivity
*plus* resource capacity: nodes and links carry annotations such as role,
geographic location, and equipment capacity.  This module defines the node
side of that annotation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from math import inf
from typing import Any, Dict, Optional, Tuple


class NodeRole(enum.Enum):
    """Functional role of a node inside an ISP topology.

    The roles mirror the hierarchical decomposition described in Section 2.2
    of the paper: backbone (WAN), distribution (MAN), and customers (LAN),
    plus peering points that interconnect ISPs (Section 2.3).
    """

    CORE = "core"
    BACKBONE = "backbone"
    DISTRIBUTION = "distribution"
    ACCESS = "access"
    CUSTOMER = "customer"
    PEERING = "peering"
    GENERIC = "generic"


@dataclass
class Node:
    """A single annotated node (router, switch, or customer site).

    Attributes:
        node_id: Hashable identifier, unique within a topology.
        role: Functional role of the node (see :class:`NodeRole`).
        location: Optional ``(x, y)`` coordinates in the topology's region.
        capacity: Optional switching capacity (same units as link capacity).
        demand: Traffic demand originated by this node (customers only).
        max_degree: Optional technology bound on the number of interfaces
            (Section 2.1: routers have a limited number of line cards).
        city: Optional name of the population center the node belongs to.
        attributes: Free-form extra annotations.
    """

    node_id: Any
    role: NodeRole = NodeRole.GENERIC
    location: Optional[Tuple[float, float]] = None
    capacity: Optional[float] = None
    demand: float = 0.0
    max_degree: Optional[int] = None
    city: Optional[str] = None
    attributes: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Written so that NaN fails every check: a NaN compares false.
        if not 0 <= self.demand < inf:
            raise ValueError(f"node demand must be finite and non-negative, got {self.demand}")
        if self.capacity is not None and not 0 <= self.capacity < inf:
            raise ValueError(
                f"node capacity must be finite and non-negative, got {self.capacity}"
            )
        if self.max_degree is not None and self.max_degree < 1:
            raise ValueError(f"max_degree must be >= 1, got {self.max_degree}")
        if self.location is not None:
            x, y = self.location
            x, y = float(x), float(y)
            if not (-inf < x < inf and -inf < y < inf):
                raise ValueError(f"node location must be finite, got {(x, y)}")
            self.location = (x, y)

    def to_dict(self) -> Dict[str, Any]:
        """Serialize the node to a plain dictionary."""
        return {
            "node_id": self.node_id,
            "role": self.role.value,
            "location": list(self.location) if self.location is not None else None,
            "capacity": self.capacity,
            "demand": self.demand,
            "max_degree": self.max_degree,
            "city": self.city,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Node":
        """Reconstruct a node from :meth:`to_dict` output."""
        location = data.get("location")
        return cls(
            node_id=data["node_id"],
            role=NodeRole(data.get("role", NodeRole.GENERIC.value)),
            location=tuple(location) if location is not None else None,
            capacity=data.get("capacity"),
            demand=data.get("demand", 0.0),
            max_degree=data.get("max_degree"),
            city=data.get("city"),
            attributes=dict(data.get("attributes", {})),
        )
