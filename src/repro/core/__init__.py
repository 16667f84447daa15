"""The paper's contribution: optimization-driven topology generation (HOT).

Each formulation states an objective, its constraints and its problem data
(demand, geography, cable economics), solves approximately, and reads the
graph statistics off the solution instead of imposing them:

* :func:`generate_fkp_tree` — the FKP distance/centrality tradeoff (§3.1);
* :func:`solve_buy_at_bulk` — single-sink buy-at-bulk access design, by the
  Meyerson-style incremental algorithm or a deterministic baseline (§4.1–4.2);
* :func:`generate_isp` — the WAN/MAN/LAN single-ISP design (§2.2);
* :func:`generate_internet` — interconnected ISPs and their AS graph (§2.3).

Each returns an annotated :class:`~repro.topology.graph.Topology` (or a
result record holding one), so one metric suite applies to HOT and baseline
topologies alike.
"""

from .fkp import (
    FKPModel,
    FKPParameters,
    alpha_regime,
    euclidean_centrality,
    generate_fkp_tree,
    hop_centrality,
    subtree_load_centrality,
)
from .buyatbulk import (
    BuyAtBulkInstance,
    BuyAtBulkSolution,
    Customer,
    core_node_id,
    random_instance,
    route_tree_flows,
    solve_direct_star,
    solve_greedy_aggregation,
    solve_mst_routing,
    trivial_lower_bound,
)
from .meyerson import (
    BUY_AT_BULK_ALGORITHMS,
    MeyersonBuyAtBulk,
    MeyersonParameters,
    best_of_runs,
    solve_buy_at_bulk,
    solve_meyerson,
)
from .access_design import (
    AccessDesignParameters,
    AccessDesignResult,
    AccessNetworkDesigner,
    design_access_network,
)
from .objectives import (
    CostObjective,
    ProfitObjective,
    served_customers,
    unserved_demand,
)
from .constraints import (
    CapacityConstraint,
    Constraint,
    ConstraintSet,
    DegreeConstraint,
    default_router_constraints,
)
from .evolution import (
    GrowthParameters,
    GrowthSimulator,
    GrowthTrace,
    PeriodRecord,
    simulate_growth,
)
from .isp import ISPDesign, ISPGenerator, ISPParameters, generate_isp
from .peering import (
    DEFAULT_PROFILES,
    InternetGenerator,
    InternetModel,
    ISPProfile,
    PeeringPolicy,
    generate_internet,
)

__all__ = [
    "FKPModel",
    "FKPParameters",
    "alpha_regime",
    "euclidean_centrality",
    "generate_fkp_tree",
    "hop_centrality",
    "subtree_load_centrality",
    "BuyAtBulkInstance",
    "BuyAtBulkSolution",
    "Customer",
    "core_node_id",
    "random_instance",
    "route_tree_flows",
    "solve_direct_star",
    "solve_greedy_aggregation",
    "solve_mst_routing",
    "trivial_lower_bound",
    "BUY_AT_BULK_ALGORITHMS",
    "MeyersonBuyAtBulk",
    "MeyersonParameters",
    "best_of_runs",
    "solve_buy_at_bulk",
    "solve_meyerson",
    "AccessDesignParameters",
    "AccessDesignResult",
    "AccessNetworkDesigner",
    "design_access_network",
    "CostObjective",
    "ProfitObjective",
    "served_customers",
    "unserved_demand",
    "CapacityConstraint",
    "Constraint",
    "ConstraintSet",
    "DegreeConstraint",
    "default_router_constraints",
    "GrowthParameters",
    "GrowthSimulator",
    "GrowthTrace",
    "PeriodRecord",
    "simulate_growth",
    "ISPDesign",
    "ISPGenerator",
    "ISPParameters",
    "generate_isp",
    "DEFAULT_PROFILES",
    "InternetGenerator",
    "InternetModel",
    "ISPProfile",
    "PeeringPolicy",
    "generate_internet",
]
