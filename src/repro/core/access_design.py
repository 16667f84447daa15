"""Metro access-network design: concentrators plus buy-at-bulk feeder trees.

Section 4 of the paper chooses "the problem of designing a distribution
network that provides local access for its customers" as the concrete starting
point, noting that classic formulations "incorporate the fixed costs of cable
installation and the marginal costs of routing, as well as the cost of
installing additional equipment, such as concentrators", and that "an emphasis
on cost in these formulations leads to solutions that are tree (or forest)
topologies".

:class:`AccessNetworkDesigner` implements that two-level design:

1. place concentrators (access aggregation points) with a facility-location
   heuristic, trading equipment cost against customer haul distance;
2. connect customers to their concentrator, and concentrators to the metro
   core, with buy-at-bulk trees (Meyerson-style incremental algorithm or one
   of the deterministic baselines);
3. provision cables over the resulting tree and report the full cost.

It also provides the path-redundancy variant mentioned in the paper's footnote
7 ("adding a path redundancy requirement breaks the tree structure of the
optimal solution") as an optional post-pass that adds backup links, used by
the robustness experiment E7.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..economics.cables import CableCatalog, default_catalog
from ..geography.points import euclidean
from ..geography.regions import Region, metro_region
from ..optimization.facility_location import (
    choose_concentrator_count,
    k_median,
)
from ..topology.graph import Topology
from ..topology.node import NodeRole
from .buyatbulk import BuyAtBulkInstance, Customer, core_node_id, provision_solution
from .meyerson import BUY_AT_BULK_ALGORITHMS, solve_buy_at_bulk


@dataclass
class AccessDesignParameters:
    """Parameters of the metro access design.

    Attributes:
        concentrator_cost: Equipment cost of installing one concentrator.
        clients_per_concentrator: Sizing rule for the number of concentrators.
        feeder_algorithm: Which buy-at-bulk solver connects customers within a
            concentrator cluster, one of
            :data:`~repro.core.meyerson.BUY_AT_BULK_ALGORITHMS`.
        redundancy: If True, add a backup uplink from every concentrator to its
            second-closest peer or core (footnote 7 variant).
        seed: Random seed for the randomized components.
    """

    concentrator_cost: float = 50.0
    clients_per_concentrator: int = 24
    feeder_algorithm: str = "meyerson"
    redundancy: bool = False
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0 <= self.concentrator_cost < math.inf:
            raise ValueError(
                f"concentrator_cost must be non-negative and finite, got {self.concentrator_cost}"
            )
        if self.clients_per_concentrator < 1:
            raise ValueError("clients_per_concentrator must be >= 1")
        if self.feeder_algorithm not in BUY_AT_BULK_ALGORITHMS:
            raise ValueError(
                f"feeder_algorithm must be one of {BUY_AT_BULK_ALGORITHMS}, "
                f"got {self.feeder_algorithm!r}"
            )


@dataclass
class AccessDesignResult:
    """Output of the access designer.

    Attributes:
        topology: The complete metro access network (core, concentrators,
            customers) with provisioned cables.
        concentrator_ids: Node ids of the installed concentrators.
        equipment_cost: Total concentrator equipment cost.
        parameters: The parameters used.
    """

    topology: Topology
    concentrator_ids: List[Any]
    equipment_cost: float
    parameters: AccessDesignParameters

    def total_cost(self) -> float:
        """Cable cost plus concentrator equipment cost."""
        return self.topology.total_cost() + self.equipment_cost


class AccessNetworkDesigner:
    """Designs a metro access network for a set of customers.

    Args:
        customers: Customer sites (locations and demands).
        core_location: Location of the metro core PoP.
        catalog: Cable catalog (defaults to the paper-style OC ladder).
        region: Metro region; defaults to a 50 km square.
        parameters: Design parameters.
    """

    def __init__(
        self,
        customers: List[Customer],
        core_location: Tuple[float, float],
        catalog: Optional[CableCatalog] = None,
        region: Optional[Region] = None,
        parameters: Optional[AccessDesignParameters] = None,
    ) -> None:
        if not customers:
            raise ValueError("at least one customer is required")
        self.customers = list(customers)
        self.core_location = core_location
        self.catalog = catalog or default_catalog()
        self.region = region or metro_region()
        self.parameters = parameters or AccessDesignParameters()

    # ------------------------------------------------------------------
    def design(self) -> AccessDesignResult:
        """Run the full two-level design and return the provisioned network."""
        params = self.parameters
        rng = random.Random(params.seed)

        concentrator_locations, assignment = self._place_concentrators(rng)
        topology = self._build_topology(concentrator_locations, assignment, rng)
        if params.redundancy:
            self._add_redundancy(topology, concentrator_locations)
        instance = BuyAtBulkInstance(
            customers=self.customers,
            core_locations=[self.core_location],
            catalog=self.catalog,
            region=self.region,
        )
        provision_solution(topology, instance)
        equipment_cost = params.concentrator_cost * len(concentrator_locations)
        concentrator_ids = [f"conc{i}" for i in range(len(concentrator_locations))]
        topology.metadata["model"] = "access-design"
        topology.metadata["feeder_algorithm"] = params.feeder_algorithm
        return AccessDesignResult(
            topology=topology,
            concentrator_ids=concentrator_ids,
            equipment_cost=equipment_cost,
            parameters=params,
        )

    # ------------------------------------------------------------------
    def _place_concentrators(
        self, rng: random.Random
    ) -> Tuple[List[Tuple[float, float]], Dict[int, int]]:
        """Choose concentrator locations and assign each customer to one."""
        params = self.parameters
        locations = [c.location for c in self.customers]
        weights = [c.demand for c in self.customers]
        k = choose_concentrator_count(len(self.customers), params.clients_per_concentrator)
        k = min(k, len(self.customers))
        solution = k_median(
            clients=locations,
            candidates=locations,
            k=k,
            weights=weights,
            rng=rng,
        )
        concentrator_locations = [locations[f] for f in solution.facilities]
        facility_order = {f: i for i, f in enumerate(solution.facilities)}
        assignment = {
            client: facility_order[facility]
            for client, facility in solution.assignment.items()
        }
        return concentrator_locations, assignment

    def _build_topology(
        self,
        concentrator_locations: List[Tuple[float, float]],
        assignment: Dict[int, int],
        rng: random.Random,
    ) -> Topology:
        """Assemble the core + concentrators + per-cluster feeder trees."""
        topology = Topology(name="metro-access")
        topology.add_node(core_node_id(0), role=NodeRole.CORE, location=self.core_location)
        for index, location in enumerate(concentrator_locations):
            topology.add_node(f"conc{index}", role=NodeRole.ACCESS, location=location)
            topology.add_link(core_node_id(0), f"conc{index}")

        for cluster_index, location in enumerate(concentrator_locations):
            members = [
                self.customers[i] for i, c in assignment.items() if c == cluster_index
            ]
            if not members:
                continue
            feeder = self._solve_feeder(members, location, rng)
            self._graft_feeder(topology, feeder, cluster_index)
        return topology

    def _solve_feeder(
        self,
        members: List[Customer],
        concentrator_location: Tuple[float, float],
        rng: random.Random,
    ) -> Topology:
        """Solve the buy-at-bulk subproblem of one concentrator cluster."""
        params = self.parameters
        instance = BuyAtBulkInstance(
            customers=members,
            core_locations=[concentrator_location],
            catalog=self.catalog,
            region=self.region,
        )
        # Only the randomized solver draws a seed: a draw for every solver
        # would move the stream of a design with deterministic feeders.
        seed = rng.randrange(1 << 30) if params.feeder_algorithm == "meyerson" else None
        return solve_buy_at_bulk(instance, params.feeder_algorithm, seed=seed).topology

    def _graft_feeder(
        self, topology: Topology, feeder: Topology, cluster_index: int
    ) -> None:
        """Splice a cluster's feeder tree into the metro topology.

        The feeder's core node (``core0``) is identified with the cluster's
        concentrator node ``conc<cluster_index>``.
        """
        concentrator = f"conc{cluster_index}"
        rename = {core_node_id(0): concentrator}
        for node in feeder.nodes():
            node_id = rename.get(node.node_id, node.node_id)
            if not topology.has_node(node_id):
                topology.add_node(
                    node_id,
                    role=node.role,
                    location=node.location,
                    demand=node.demand,
                )
        for link in feeder.links():
            u = rename.get(link.source, link.source)
            v = rename.get(link.target, link.target)
            if not topology.has_link(u, v):
                topology.add_link(u, v)

    def _add_redundancy(
        self, topology: Topology, concentrator_locations: List[Tuple[float, float]]
    ) -> None:
        """Add a second uplink per concentrator (footnote-7 redundancy variant)."""
        ids = [f"conc{i}" for i in range(len(concentrator_locations))]
        for index, concentrator in enumerate(ids):
            candidates = [
                (other, euclidean(concentrator_locations[index], concentrator_locations[j]))
                for j, other in enumerate(ids)
                if other != concentrator
            ]
            candidates.sort(key=lambda pair: pair[1])
            for other, _ in candidates:
                if not topology.has_link(concentrator, other):
                    topology.add_link(concentrator, other)
                    break


def design_access_network(
    num_customers: int,
    seed: Optional[int] = None,
    feeder_algorithm: str = "meyerson",
    clustered: bool = True,
    catalog: Optional[CableCatalog] = None,
    redundancy: bool = False,
) -> AccessDesignResult:
    """One-call helper: random metro customers, full access design.

    Args:
        num_customers: Number of customer sites to generate.
        seed: Random seed for customer placement and design randomness.
        feeder_algorithm: Buy-at-bulk solver for the feeder trees.
        clustered: Cluster customers around synthetic neighbourhoods.
        catalog: Cable catalog (default OC ladder).
        redundancy: Add backup concentrator uplinks.
    """
    rng = random.Random(seed)
    region = metro_region()
    catalog = catalog or default_catalog()
    if clustered:
        locations = region.sample_clustered(num_customers, max(3, num_customers // 40), rng)
    else:
        locations = region.sample_uniform(num_customers, rng)
    customers = [
        Customer(customer_id=f"cust{i}", location=locations[i], demand=rng.uniform(1.0, 10.0))
        for i in range(num_customers)
    ]
    designer = AccessNetworkDesigner(
        customers=customers,
        core_location=region.center,
        catalog=catalog,
        region=region,
        parameters=AccessDesignParameters(
            feeder_algorithm=feeder_algorithm,
            redundancy=redundancy,
            seed=seed,
        ),
    )
    return designer.design()
