"""Link model for annotated network topologies.

Links carry the resource-capacity annotations required by the paper's notion
of topology (connectivity plus capacity): installed cable type, capacity,
length, and cost components.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from typing import Any, Dict, Optional, Tuple


def edge_key(u: Any, v: Any) -> Tuple[Any, Any]:
    """Return a canonical, order-independent key for an undirected edge.

    The two endpoints are ordered by ``repr`` so that ``edge_key(a, b)`` and
    ``edge_key(b, a)`` always produce the same tuple even when the node
    identifiers are of mixed (non-comparable) types.
    """
    if u == v:
        raise ValueError(f"self-loops are not allowed (node {u!r})")
    return (u, v) if repr(u) <= repr(v) else (v, u)


@dataclass(slots=True)
class Link:
    """A single undirected, capacity-annotated link.

    Attributes:
        source: One endpoint identifier.
        target: The other endpoint identifier.
        capacity: Installed capacity (e.g. Mbps); ``None`` means unbounded.
        length: Physical length (same units as node locations).
        cable: Name of the installed cable type, if any.
        install_cost: Fixed cost paid to install the link.
        usage_cost: Marginal cost per unit of carried traffic.
        load: Traffic currently routed over the link.
        attributes: Free-form extra annotations.
        key: Canonical undirected edge key, computed once at construction
            (the endpoints are never reassigned).
        seq: Insertion sequence number in the owning
            :class:`~repro.topology.graph.Topology`, which keeps its link
            table and adjacency rows in ascending ``seq`` order; ``-1`` until
            the link is added.
    """

    source: Any
    target: Any
    capacity: Optional[float] = None
    length: float = 0.0
    cable: Optional[str] = None
    install_cost: float = 0.0
    usage_cost: float = 0.0
    load: float = 0.0
    attributes: Dict[str, Any] = field(default_factory=dict)
    key: Tuple[Any, Any] = field(init=False, repr=False, compare=False)
    seq: int = field(default=-1, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # edge_key rejects a self-loop before any annotation check runs.
        self.key = edge_key(self.source, self.target)
        # Written so that NaN fails every check: a NaN compares false.
        if self.capacity is not None and not 0 < self.capacity < inf:
            raise ValueError(f"link capacity must be positive and finite, got {self.capacity}")
        if not 0 <= self.length < inf:
            raise ValueError(f"link length must be finite and non-negative, got {self.length}")
        if not 0 <= self.install_cost < inf:
            raise ValueError(
                f"link install_cost must be finite and non-negative, got {self.install_cost}"
            )
        if not 0 <= self.usage_cost < inf:
            raise ValueError(
                f"link usage_cost must be finite and non-negative, got {self.usage_cost}"
            )
        if not 0 <= self.load < inf:
            raise ValueError(f"link load must be finite and non-negative, got {self.load}")

    def other_end(self, node_id: Any) -> Any:
        """Return the endpoint opposite to ``node_id``.

        Raises:
            ValueError: if ``node_id`` is not an endpoint of this link.
        """
        if node_id == self.source:
            return self.target
        if node_id == self.target:
            return self.source
        raise ValueError(f"node {node_id!r} is not an endpoint of {self.key}")

    def to_dict(self) -> Dict[str, Any]:
        """Serialize the link to a plain dictionary."""
        return {
            "source": self.source,
            "target": self.target,
            "capacity": self.capacity,
            "length": self.length,
            "cable": self.cable,
            "install_cost": self.install_cost,
            "usage_cost": self.usage_cost,
            "load": self.load,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Link":
        """Reconstruct a link from :meth:`to_dict` output."""
        return cls(
            source=data["source"],
            target=data["target"],
            capacity=data.get("capacity"),
            length=data.get("length", 0.0),
            cable=data.get("cable"),
            install_cost=data.get("install_cost", 0.0),
            usage_cost=data.get("usage_cost", 0.0),
            load=data.get("load", 0.0),
            attributes=dict(data.get("attributes", {})),
        )
