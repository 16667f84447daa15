"""Reference workloads: city sets, demand matrices, and experiment scenarios."""

from .cities import (
    REFERENCE_CITIES,
    metro_customers,
    reference_population,
    scaled_population,
)
from .matrices import (
    hub_and_spoke_matrix,
    hub_skewed_matrix,
)
from .scenarios import (
    SCENARIO_FACTORIES,
    SMOKE_OVERRIDES,
    Scenario,
    ablations_scenario,
    all_scenarios,
    buy_at_bulk_scenario,
    cable_economics_scenario,
    fkp_phase_scenario,
    generator_comparison_scenario,
    isp_hierarchy_scenario,
    peering_scenario,
    robustness_scenario,
    scaling_scenario,
    scenario_for,
    traffic_scenario,
)

__all__ = [
    "SCENARIO_FACTORIES",
    "SMOKE_OVERRIDES",
    "ablations_scenario",
    "scenario_for",
    "REFERENCE_CITIES",
    "metro_customers",
    "reference_population",
    "scaled_population",
    "hub_and_spoke_matrix",
    "hub_skewed_matrix",
    "Scenario",
    "all_scenarios",
    "buy_at_bulk_scenario",
    "cable_economics_scenario",
    "fkp_phase_scenario",
    "generator_comparison_scenario",
    "isp_hierarchy_scenario",
    "peering_scenario",
    "robustness_scenario",
    "scaling_scenario",
    "traffic_scenario",
]
