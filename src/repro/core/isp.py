"""Single-ISP router-level topology generation (paper Section 2.2).

"Using this approach, the size, location and connectivity of the ISP will
depend largely on the number and location of its customers, and it is possible
to generate a variety of local, regional, national, or international ISPs in
this manner."

The generator decomposes the design the way the paper describes — backbone
(WAN), distribution (MAN), customers (LAN) — and drives every level by
economic/technical inputs rather than by target statistics:

* **Backbone**: choose which cities to enter (largest population first, up to
  a coverage fraction or explicit list), place one or more core routers per
  PoP, and connect PoPs with an MST skeleton augmented by the
  highest-demand shortcut links that pay for themselves under the gravity
  demand matrix.
* **Distribution**: each PoP city gets a metro access design (concentrators +
  buy-at-bulk feeders) via :class:`~repro.core.access_design.AccessNetworkDesigner`.
* **Customers**: sampled around population centers proportionally to
  population, with per-capita demand.
* **Provisioning**: backbone links are provisioned from the cable catalog for
  the traffic the gravity matrix routes over them.

The output is a single annotated :class:`~repro.topology.graph.Topology` whose
hierarchy, degree distribution, and cost structure the experiments analyse.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..economics.cables import CableCatalog, default_catalog
from ..geography.demand import DemandMatrix, gravity_demand
from ..geography.points import euclidean
from ..geography.population import City, PopulationModel, synthetic_population
from ..geography.regions import Region, national_region
from ..optimization.mst import prim_mst_points
from ..topology.graph import Topology
from ..topology.node import NodeRole
from .access_design import AccessDesignParameters, AccessNetworkDesigner
from .buyatbulk import Customer
from .constraints import ConstraintSet, default_router_constraints
from .objectives import CostObjective, ProfitObjective, revenue

#: Traffic demand per customer.
PER_CAPITA_DEMAND = 2.0
#: Extra shortcut links added to the backbone skeleton (beyond the spanning
#: tree), chosen by demand.
BACKBONE_REDUNDANCY = 2


@dataclass
class ISPParameters:
    """Parameters controlling the single-ISP generator.

    Attributes:
        num_cities: Number of cities the ISP considers entering.
        coverage_fraction: Fraction of the largest cities actually entered
            (PoPs built); the profit formulation may shrink this further.
        customers_per_city_scale: Expected customers per million inhabitants.
        objective: ``"cost"`` or ``"profit"`` formulation.
        feeder_algorithm: Buy-at-bulk algorithm for the metro feeders.
        refine_iterations: Design-refinement iterations after the initial
            build: move-based hill climbing over customer access rewires,
            evaluated in O(Δ) by the incremental objective engine.  0 (the
            default) skips refinement and reproduces the seed design exactly.
        seed: Master random seed.
    """

    num_cities: int = 40
    coverage_fraction: float = 0.6
    customers_per_city_scale: float = 12.0
    objective: str = "cost"
    feeder_algorithm: str = "meyerson"
    refine_iterations: int = 0
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_cities < 2:
            raise ValueError("num_cities must be >= 2")
        if not 0 < self.coverage_fraction <= 1:
            raise ValueError("coverage_fraction must be in (0, 1]")
        if not 0 <= self.customers_per_city_scale < math.inf:
            raise ValueError(
                "customers_per_city_scale must be non-negative and finite, "
                f"got {self.customers_per_city_scale}"
            )
        if self.objective not in ("cost", "profit"):
            raise ValueError("objective must be 'cost' or 'profit'")
        if self.refine_iterations < 0:
            raise ValueError("refine_iterations must be non-negative")


@dataclass
class ISPDesign:
    """The result of generating one ISP.

    Attributes:
        topology: The full router-level topology (backbone + metro + customers).
        population: The population model the ISP was designed against.
        pop_cities: Names of the cities where the ISP built PoPs.
        backbone_demand: The inter-city demand matrix used for backbone design.
        parameters: Generator parameters.
        objective_value: Value of the chosen objective on the final topology.
    """

    topology: Topology
    population: PopulationModel
    pop_cities: List[str]
    backbone_demand: DemandMatrix
    parameters: ISPParameters
    objective_value: float

    def pop_count(self) -> int:
        """Number of points of presence (cities entered)."""
        return len(self.pop_cities)

    def backbone_nodes(self) -> List[Any]:
        """Node ids of core/backbone routers."""
        return [
            n.node_id
            for n in self.topology.nodes()
            if n.role in (NodeRole.CORE, NodeRole.BACKBONE)
        ]

    def customer_nodes(self) -> List[Any]:
        """Node ids of customer sites."""
        return [n.node_id for n in self.topology.nodes() if n.role == NodeRole.CUSTOMER]


class ISPGenerator:
    """Generates a single ISP's router-level topology from economic inputs.

    Args:
        population: Population centers the ISP could serve; a synthetic
            national population is generated when omitted.
        catalog: Cable catalog used for provisioning.
        parameters: Generator parameters.
        constraints: Technical constraints consulted during construction.
        region: Service region (only used when ``population`` is omitted).
    """

    def __init__(
        self,
        population: Optional[PopulationModel] = None,
        catalog: Optional[CableCatalog] = None,
        parameters: Optional[ISPParameters] = None,
        constraints: Optional[ConstraintSet] = None,
        region: Optional[Region] = None,
    ) -> None:
        self.parameters = parameters or ISPParameters()
        self.catalog = catalog or default_catalog()
        self.constraints = constraints or default_router_constraints()
        if population is None:
            region = region or national_region()
            population = synthetic_population(
                region, self.parameters.num_cities, seed=self.parameters.seed
            )
        self.population = population

    # ------------------------------------------------------------------
    def generate(self, name: str = "isp") -> ISPDesign:
        """Run the full WAN/MAN/LAN design and return the ISP topology."""
        params = self.parameters
        rng = random.Random(params.seed)

        pop_cities = self._select_pop_cities(rng)
        demand = gravity_demand(pop_cities, total_volume=10_000.0)

        topology = Topology(name=name)
        topology.metadata["model"] = "isp-optimization"
        topology.metadata["objective"] = params.objective

        core_ids = self._build_backbone(topology, pop_cities, demand, rng)
        self._build_metros(topology, pop_cities, core_ids, rng)
        self._provision_backbone(topology, pop_cities, demand, core_ids)
        if params.refine_iterations > 0:
            self._refine_access(topology, rng)

        objective = self._objective()
        value = objective.evaluate(topology)
        topology.metadata["objective_value"] = value
        return ISPDesign(
            topology=topology,
            population=self.population,
            pop_cities=[c.name for c in pop_cities],
            backbone_demand=demand,
            parameters=params,
            objective_value=value,
        )

    # ------------------------------------------------------------------
    def _objective(self) -> CostObjective:
        if self.parameters.objective == "profit":
            return ProfitObjective(catalog=self.catalog)
        return CostObjective(catalog=self.catalog)

    def _select_pop_cities(self, rng: random.Random) -> List[City]:
        """Enter the largest cities up to the coverage fraction.

        Under the profit objective, marginal cities (smallest populations)
        are dropped when the expected metro revenue does not cover the
        expected backbone extension cost — the "build only up to the point of
        profitability" rule applied at city granularity.
        """
        params = self.parameters
        count = max(2, int(round(params.coverage_fraction * len(self.population.cities))))
        candidates = self.population.largest(count)
        if params.objective != "profit" or len(candidates) <= 2:
            return candidates

        kept: List[City] = candidates[:2]
        for city in candidates[2:]:
            expected_customers = self._expected_customers(city)
            expected_demand = PER_CAPITA_DEMAND
            expected_revenue = expected_customers * revenue(expected_demand)
            nearest = min(kept, key=lambda c: euclidean(c.location, city.location))
            extension_length = euclidean(nearest.location, city.location)
            extension_cost = self.catalog.link_cost(
                expected_customers * expected_demand, extension_length
            )
            if expected_revenue >= extension_cost:
                kept.append(city)
        return kept

    def _expected_customers(self, city: City) -> int:
        scale = self.parameters.customers_per_city_scale
        return max(1, int(round(scale * city.population / 1_000_000.0)))

    # ------------------------------------------------------------------
    def _build_backbone(
        self,
        topology: Topology,
        pop_cities: List[City],
        demand: DemandMatrix,
        rng: random.Random,
    ) -> Dict[str, Any]:
        """Backbone: one core router per PoP, MST skeleton + demand shortcuts."""
        core_ids: Dict[str, Any] = {}
        for city in pop_cities:
            node_id = f"core:{city.name}"
            topology.add_node(
                node_id, role=NodeRole.CORE, location=city.location, city=city.name
            )
            core_ids[city.name] = node_id

        locations = [c.location for c in pop_cities]
        for u, v in prim_mst_points(locations):
            a = core_ids[pop_cities[u].name]
            b = core_ids[pop_cities[v].name]
            if not topology.has_link(a, b):
                topology.add_link(a, b)

        # Add the highest-demand city pairs as shortcut links, if allowed.
        added = 0
        for a_name, b_name, _volume in demand.top_pairs(len(pop_cities) * 2):
            if added >= BACKBONE_REDUNDANCY:
                break
            a, b = core_ids[a_name], core_ids[b_name]
            if topology.has_link(a, b):
                continue
            if self.constraints.allows_link(topology, a, b):
                topology.add_link(a, b)
                added += 1
        return core_ids

    def _build_metros(
        self,
        topology: Topology,
        pop_cities: List[City],
        core_ids: Dict[str, Any],
        rng: random.Random,
    ) -> None:
        """Metro distribution + access design per PoP city."""
        params = self.parameters
        for city in pop_cities:
            num_customers = self._expected_customers(city)
            metro_size = max(10.0, 0.02 * self.population.region.diagonal)
            metro = Region(
                name=f"metro-{city.name}",
                width=metro_size,
                height=metro_size,
                origin=(
                    city.location[0] - metro_size / 2.0,
                    city.location[1] - metro_size / 2.0,
                ),
            )
            locations = metro.sample_clustered(
                num_customers, max(2, num_customers // 20), rng
            )
            customers = [
                Customer(
                    customer_id=f"{city.name}:cust{i}",
                    location=locations[i],
                    demand=PER_CAPITA_DEMAND,
                )
                for i in range(num_customers)
            ]
            designer = AccessNetworkDesigner(
                customers=customers,
                core_location=city.location,
                catalog=self.catalog,
                region=metro,
                parameters=AccessDesignParameters(
                    feeder_algorithm=params.feeder_algorithm,
                    seed=rng.randrange(1 << 30),
                ),
            )
            result = designer.design()
            self._graft_metro(topology, result.topology, city, core_ids[city.name])

    def _graft_metro(
        self,
        topology: Topology,
        metro_topology: Topology,
        city: City,
        core_id: Any,
    ) -> None:
        """Splice a metro design into the national topology.

        The metro's core node is identified with the city's backbone core
        router; its access nodes become distribution routers of the city.
        """
        from .buyatbulk import core_node_id

        rename = {core_node_id(0): core_id}
        for node in metro_topology.nodes():
            node_id = rename.get(node.node_id, f"{city.name}:{node.node_id}")
            rename.setdefault(node.node_id, node_id)
            if topology.has_node(node_id):
                continue
            role = node.role
            if role == NodeRole.ACCESS:
                role = NodeRole.DISTRIBUTION
            topology.add_node(
                node_id,
                role=role,
                location=node.location,
                demand=node.demand,
                city=city.name,
            )
        for link in metro_topology.links():
            u = rename[link.source]
            v = rename[link.target]
            if not topology.has_link(u, v):
                topology.add_link(
                    u,
                    v,
                    capacity=link.capacity,
                    cable=link.cable,
                    install_cost=link.install_cost,
                    usage_cost=link.usage_cost,
                    load=link.load,
                )

    def _refine_access(self, topology: Topology, rng: random.Random) -> None:
        """Design-refinement iterations over the finished build (paper §2.2).

        Proposes rewiring a customer's single access link to another
        aggregation point in the same city; each proposal is priced
        incrementally by
        :class:`~repro.optimization.incremental.IncrementalState` under the
        ISP's own objective (the cost delta is O(Δ); the removal half of a
        rewire is an incremental deletion on the engine's dynamic-connectivity
        structure — polylog, no reachability sweep), and only
        cost-improving rewires are kept (first-improvement hill climbing).
        The refinement summary lands in ``topology.metadata["refinement"]``.
        """
        from ..optimization.incremental import IncrementalState, Rewire
        from ..optimization.local_search import hill_climb_moves

        customers = [
            n.node_id for n in topology.nodes() if n.role == NodeRole.CUSTOMER
        ]
        aggregation_by_city: Dict[str, List[Any]] = {}
        for node in topology.nodes():
            if node.city is not None and node.role in (
                NodeRole.CORE,
                NodeRole.DISTRIBUTION,
                NodeRole.ACCESS,
            ):
                aggregation_by_city.setdefault(node.city, []).append(node.node_id)
        if not customers or not aggregation_by_city:
            return

        def propose(state, prng: random.Random):
            customer = prng.choice(customers)
            neighbors = topology.neighbors(customer)
            if len(neighbors) != 1:
                return None
            old = neighbors[0]
            candidates = aggregation_by_city.get(topology.node(customer).city)
            if not candidates:
                return None
            new = prng.choice(candidates)
            if new == old or topology.has_link(customer, new):
                return None
            return Rewire(customer, old, new)

        state = IncrementalState(topology, self._objective())
        iterations = self.parameters.refine_iterations
        result = hill_climb_moves(
            state, propose, max_iterations=iterations, patience=iterations, rng=rng
        )
        topology.metadata["refinement"] = {
            "iterations": result.iterations,
            "accepted_moves": result.accepted_moves,
            "objective_before": result.history[0],
            "objective_after": result.best_cost,
        }

    def _provision_backbone(
        self,
        topology: Topology,
        pop_cities: List[City],
        demand: DemandMatrix,
        core_ids: Dict[str, Any],
    ) -> None:
        """Route the gravity demand over backbone shortest paths and install cables.

        The inter-city matrix routes through the batched traffic engine on a
        compiled view of the backbone: one shortest-path search per unique
        source city instead of one per demand pair, with loads scattered onto
        the engine's edge column and written back to the national topology's
        links in a single pass.
        """
        from ..routing.engine import route_demand

        backbone_nodes = set(core_ids.values())
        backbone_links = [
            link
            for link in topology.links()
            if link.source in backbone_nodes and link.target in backbone_nodes
        ]

        backbone = topology.subgraph(backbone_nodes, name="backbone-view")
        flow = route_demand(backbone, demand, endpoint_map=core_ids)
        loads = dict(zip(flow.graph.edge_keys, flow.edge_loads))
        for link in backbone_links:
            link.load = loads.get(link.key, 0.0)

        for link in backbone_links:
            link.cable, link.capacity, link.install_cost, link.usage_cost = (
                self.catalog.installation(link.load, link.length)
            )


def generate_isp(
    num_cities: int = 30,
    seed: Optional[int] = None,
    objective: str = "cost",
    coverage_fraction: float = 0.6,
    customers_per_city_scale: float = 8.0,
    feeder_algorithm: str = "meyerson",
    name: str = "isp",
) -> ISPDesign:
    """One-call helper: synthesize a national population and design an ISP over it."""
    parameters = ISPParameters(
        num_cities=num_cities,
        coverage_fraction=coverage_fraction,
        customers_per_city_scale=customers_per_city_scale,
        objective=objective,
        feeder_algorithm=feeder_algorithm,
        seed=seed,
    )
    generator = ISPGenerator(parameters=parameters)
    return generator.generate(name=name)
