"""Unified HOT (Highly Optimized Tolerance) generation API.

The paper advocates "an approach to network topology design, modeling, and
generation that is based on the concept of Highly Optimized Tolerance (HOT)":
state the objective, the constraints, and the problem data (demand, geography,
cable economics), solve approximately, and read the observed graph statistics
off the solution instead of imposing them.

:class:`HOTGenerator` is the single entry point that ties the pieces together.
Each ``generate_*`` method corresponds to one optimization formulation from
the paper:

* :meth:`generate_fkp_tree` — the FKP distance/centrality tradeoff (§3.1);
* :meth:`generate_access_tree` — the single-sink buy-at-bulk access design
  solved with the Meyerson-style incremental algorithm (§4.1–4.2);
* :meth:`generate_isp` — the full WAN/MAN/LAN single-ISP design (§2.2);
* :meth:`generate_internet` — interconnected ISPs and the induced AS graph (§2.3).

Every method returns annotated :class:`~repro.topology.graph.Topology` objects
(or richer result records that contain one), so that the same metric suite can
be applied uniformly to HOT-generated and baseline-generated topologies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..economics.cables import CableCatalog, default_catalog
from ..geography.regions import Region
from ..topology.graph import Topology
from .buyatbulk import (
    BuyAtBulkInstance,
    BuyAtBulkSolution,
    random_instance,
    solve_direct_star,
    solve_greedy_aggregation,
    solve_mst_routing,
)
from .fkp import generate_fkp_tree
from .isp import ISPDesign, generate_isp
from .meyerson import best_of_runs, solve_meyerson
from .objectives import CostObjective, Objective
from .peering import InternetModel, generate_internet


#: Registry of buy-at-bulk solvers exposed through the unified API.
BUY_AT_BULK_SOLVERS = {
    "meyerson": solve_meyerson,
    "greedy": solve_greedy_aggregation,
    "mst": solve_mst_routing,
    "star": solve_direct_star,
}


@dataclass
class HOTGenerator:
    """Facade over the optimization-driven generators.

    Attributes:
        catalog: Cable catalog shared by all cost-aware formulations.
        objective: Objective used when one is not implied by the method.
        seed: Default random seed applied when a call does not override it.
    """

    catalog: CableCatalog = field(default_factory=default_catalog)
    objective: Objective = field(default_factory=CostObjective)
    seed: Optional[int] = None

    # ------------------------------------------------------------------
    def generate_fkp_tree(
        self,
        num_nodes: int,
        alpha: float,
        seed: Optional[int] = None,
        region: Optional[Region] = None,
    ) -> Topology:
        """Grow an FKP tradeoff tree (paper §3.1)."""
        return generate_fkp_tree(
            num_nodes, alpha, seed=self._seed(seed), region=region
        )

    def generate_access_tree(
        self,
        num_customers: int,
        seed: Optional[int] = None,
        algorithm: str = "meyerson",
        clustered: bool = False,
        best_of: int = 1,
    ) -> BuyAtBulkSolution:
        """Solve a random single-sink buy-at-bulk instance (paper §4.1–4.2).

        Args:
            num_customers: Number of customer sites.
            seed: Random seed for the instance and the solver.
            algorithm: One of ``"meyerson"``, ``"greedy"``, ``"mst"``, ``"star"``.
            clustered: Cluster customers around synthetic neighbourhoods.
            best_of: For the randomized solver, keep the best of this many runs.
        """
        seed = self._seed(seed)
        instance = random_instance(
            num_customers, seed=seed, catalog=self.catalog, clustered=clustered
        )
        return self.solve_buy_at_bulk(instance, algorithm=algorithm, seed=seed, best_of=best_of)

    def solve_buy_at_bulk(
        self,
        instance: BuyAtBulkInstance,
        algorithm: str = "meyerson",
        seed: Optional[int] = None,
        best_of: int = 1,
    ) -> BuyAtBulkSolution:
        """Solve a caller-supplied buy-at-bulk instance with a named algorithm."""
        if algorithm not in BUY_AT_BULK_SOLVERS:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; expected one of {sorted(BUY_AT_BULK_SOLVERS)}"
            )
        seed = self._seed(seed)
        if algorithm == "meyerson":
            if best_of > 1:
                return best_of_runs(instance, num_runs=best_of, seed=seed)
            return solve_meyerson(instance, seed=seed)
        solver = BUY_AT_BULK_SOLVERS[algorithm]
        if algorithm == "greedy":
            return solver(instance, seed=seed)
        return solver(instance)

    def generate_isp(
        self,
        num_cities: int = 30,
        seed: Optional[int] = None,
        objective: Optional[str] = None,
        coverage_fraction: float = 0.6,
        customers_per_city_scale: float = 8.0,
        name: str = "isp",
    ) -> ISPDesign:
        """Design a full single-ISP router-level topology (paper §2.2)."""
        if objective is None:
            objective = "profit" if self.objective.name == "profit" else "cost"
        return generate_isp(
            num_cities=num_cities,
            seed=self._seed(seed),
            objective=objective,
            coverage_fraction=coverage_fraction,
            customers_per_city_scale=customers_per_city_scale,
            name=name,
        )

    def generate_internet(
        self,
        num_isps: int = 30,
        num_cities: int = 40,
        seed: Optional[int] = None,
        include_metros: bool = False,
    ) -> InternetModel:
        """Generate interconnected ISPs and their AS graph (paper §2.3)."""
        return generate_internet(
            num_isps=num_isps,
            num_cities=num_cities,
            seed=self._seed(seed),
            include_metros=include_metros,
        )

    def _seed(self, seed: Optional[int]) -> Optional[int]:
        return seed if seed is not None else self.seed
