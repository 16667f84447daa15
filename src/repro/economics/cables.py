"""Cable types and buy-at-bulk cable catalogs.

Section 4.1 of the paper defines the buy-at-bulk setting precisely: the ISP
chooses among cable types ``k in {1..K}`` with capacity ``u_k``, fixed
installation cost ``sigma_k``, and marginal usage cost ``delta_k``, where

    u_1 <= u_2 <= ... <= u_K,
    sigma_1 <= sigma_2 <= ... <= sigma_K,
    delta_1 >  delta_2 >  ... >  delta_K.

"Larger capacity cables have higher overhead costs, but lower per-bandwidth
usage costs" — i.e. economies of scale.  :class:`CableCatalog` encodes such a
set of cable types and provides the per-unit-length cost of provisioning a
given flow, which is what every buy-at-bulk algorithm in :mod:`repro.core`
optimizes against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple


@dataclass(frozen=True)
class CableType:
    """A single cable type (one {capacity, cost} combination).

    Attributes:
        name: Identifier (e.g. ``"OC-12"``).
        capacity: Capacity ``u_k`` (e.g. Mbps).
        install_cost: Fixed overhead cost ``sigma_k`` per unit length.
        usage_cost: Marginal cost ``delta_k`` per unit of flow per unit length.
    """

    name: str
    capacity: float
    install_cost: float
    usage_cost: float

    def __post_init__(self) -> None:
        # Written so that NaN fails every check: a NaN compares false.
        if not 0 < self.capacity < math.inf:
            raise ValueError(f"cable capacity must be positive and finite, got {self.capacity}")
        if not 0 <= self.install_cost < math.inf:
            raise ValueError(
                f"cable install_cost must be finite and non-negative, got {self.install_cost}"
            )
        if not 0 <= self.usage_cost < math.inf:
            raise ValueError(
                f"cable usage_cost must be finite and non-negative, got {self.usage_cost}"
            )

    def cost_for_flow(self, flow: float) -> float:
        """Cost per unit length of carrying ``flow`` over enough copies of this cable.

        Multiple parallel copies are installed when the flow exceeds a single
        cable's capacity (each copy pays its installation cost).
        """
        if flow < 0:
            raise ValueError(f"flow must be non-negative, got {flow}")
        if flow == 0:
            return 0.0
        copies = math.ceil(flow / self.capacity)
        return copies * self.install_cost + flow * self.usage_cost


class CableCatalog:
    """An ordered set of cable types exhibiting economies of scale.

    The catalog validates the paper's ordering constraints at construction
    time: monotone capacities and installation costs, strictly decreasing
    marginal costs.
    """

    def __init__(self, cable_types: Sequence[CableType]) -> None:
        if not cable_types:
            raise ValueError("catalog must contain at least one cable type")
        names = [c.name for c in cable_types]
        if len(names) != len(set(names)):
            raise ValueError("cable type names must be unique")
        self._cables = sorted(cable_types, key=lambda c: c.capacity)
        problems = self.validate_economies_of_scale()
        if problems:
            raise ValueError(
                "catalog violates economies-of-scale ordering: " + "; ".join(problems)
            )

    # ------------------------------------------------------------------
    def validate_economies_of_scale(self) -> List[str]:
        """Return violations of the u/sigma/delta ordering (empty when valid)."""
        problems = []
        for a, b in zip(self._cables, self._cables[1:]):
            if b.capacity < a.capacity:
                problems.append(f"capacity of {b.name} < {a.name}")
            if b.install_cost < a.install_cost:
                problems.append(
                    f"install cost of {b.name} ({b.install_cost}) < {a.name} ({a.install_cost})"
                )
            if b.usage_cost >= a.usage_cost:
                problems.append(
                    f"usage cost of {b.name} ({b.usage_cost}) >= {a.name} ({a.usage_cost})"
                )
        return problems

    # ------------------------------------------------------------------
    @property
    def cables(self) -> Tuple[CableType, ...]:
        """Cable types ordered by increasing capacity."""
        return tuple(self._cables)

    def __len__(self) -> int:
        return len(self._cables)

    def __iter__(self):
        return iter(self._cables)

    def by_name(self, name: str) -> CableType:
        """Look up a cable type by name."""
        for cable in self._cables:
            if cable.name == name:
                return cable
        raise KeyError(f"no cable type named {name!r}")

    @property
    def smallest(self) -> CableType:
        """The lowest-capacity cable type."""
        return self._cables[0]

    @property
    def largest(self) -> CableType:
        """The highest-capacity cable type."""
        return self._cables[-1]

    # ------------------------------------------------------------------
    def best_cable_for_flow(self, flow: float) -> CableType:
        """The cable type minimizing cost per unit length for a given flow."""
        if flow < 0:
            raise ValueError(f"flow must be non-negative, got {flow}")
        if flow == 0:
            return self.smallest
        return min(self._cables, key=lambda c: c.cost_for_flow(flow))

    def cost_per_unit_length(self, flow: float) -> float:
        """Minimum cost per unit length of carrying ``flow`` (the cost envelope).

        This is the lower envelope of the per-cable cost functions — the
        sub-additive, concave-like function whose shape is what makes traffic
        aggregation (and hence tree-like topologies) economical.
        """
        if flow < 0:
            raise ValueError(f"flow must be non-negative, got {flow}")
        if flow == 0:
            return 0.0
        return min(cable.cost_for_flow(flow) for cable in self._cables)

    def link_cost(self, flow: float, length: float) -> float:
        """Minimum total cost of carrying ``flow`` over a link of given ``length``."""
        if length < 0:
            raise ValueError(f"length must be non-negative, got {length}")
        return self.cost_per_unit_length(flow) * length

    def installation(self, flow: float, length: float) -> Tuple[str, float, float, float]:
        """The cheapest cables carrying ``flow`` over a link of given ``length``.

        Returns the link's four cable annotations: ``(cable, capacity,
        install_cost, usage_cost)``, for parallel copies of the best cable
        type.  An unloaded link (``flow <= 0``) gets one copy of the smallest
        cable, so the topology stays connected.
        """
        if flow <= 0:
            cable, copies = self.smallest, 1
        else:
            cable = self.best_cable_for_flow(flow)
            copies = max(1, math.ceil(flow / cable.capacity))
        return (
            cable.name,
            cable.capacity * copies,
            cable.install_cost * copies * length,
            cable.usage_cost * length,
        )

    def is_subadditive(self, flows: Iterable[float]) -> bool:
        """Check sub-additivity of the cost envelope on a sample of flows.

        Sub-additivity (cost(a + b) <= cost(a) + cost(b)) is the property that
        rewards aggregating traffic onto shared links.
        """
        sample = [f for f in flows if f > 0]
        for a in sample:
            for b in sample:
                if self.cost_per_unit_length(a + b) > (
                    self.cost_per_unit_length(a) + self.cost_per_unit_length(b) + 1e-9
                ):
                    return False
        return True


def default_catalog() -> CableCatalog:
    """The "fictitious, yet realistic" catalog used throughout the experiments.

    Capacities follow the SONET OC-3 / OC-12 / OC-48 / OC-192 ladder (in
    Mbps); installation and usage costs are synthetic but satisfy the paper's
    economies-of-scale ordering (footnote 8: "parameters were chosen to be
    consistent with the assumptions of the algorithm and the current
    marketplace").
    """
    return CableCatalog(
        [
            CableType(name="DS-3", capacity=45.0, install_cost=1.0, usage_cost=0.200),
            CableType(name="OC-3", capacity=155.0, install_cost=2.2, usage_cost=0.060),
            CableType(name="OC-12", capacity=622.0, install_cost=5.0, usage_cost=0.018),
            CableType(name="OC-48", capacity=2488.0, install_cost=11.0, usage_cost=0.005),
            CableType(name="OC-192", capacity=9953.0, install_cost=24.0, usage_cost=0.0015),
        ]
    )


def linear_catalog(usage_cost: float = 1.0) -> CableCatalog:
    """A catalog with zero fixed cost and purely linear usage cost.

    Under purely linear costs there is no reward for aggregation, so optimal
    access networks collapse to direct customer-to-core stars; used by the E3
    ablation to show that economies of scale are what produce tree structure.
    """
    return CableCatalog(
        [CableType(name="linear", capacity=1e12, install_cost=0.0, usage_cost=usage_cost)]
    )
