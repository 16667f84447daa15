"""Tests for repro.workloads (cities, matrices, scenarios)."""

import pytest

from repro.geography.demand import gravity_demand, uniform_demand
from repro.workloads.cities import (
    REFERENCE_CITIES,
    metro_customers,
    reference_population,
    scaled_population,
)
from repro.workloads.matrices import hub_and_spoke_matrix
from repro.workloads.scenarios import all_scenarios, fkp_phase_scenario


class TestReferenceCities:
    def test_reference_population_size(self):
        population = reference_population()
        assert len(population.cities) == len(REFERENCE_CITIES)

    def test_reference_city_names_unique(self):
        names = [name for name, *_ in REFERENCE_CITIES]
        assert len(names) == len(set(names))

    def test_all_cities_inside_region(self):
        population = reference_population()
        assert all(population.region.contains(c.location) for c in population.cities)

    def test_scaled_population_small_uses_reference(self):
        population = scaled_population(5)
        reference_names = {name for name, *_ in REFERENCE_CITIES}
        assert all(c.name in reference_names for c in population.cities)
        assert len(population.cities) == 5

    def test_scaled_population_large_is_synthetic(self):
        population = scaled_population(40, seed=1)
        assert len(population.cities) == 40

    def test_scaled_population_invalid(self):
        with pytest.raises(ValueError):
            scaled_population(0)


class TestMetroCustomers:
    def test_count_and_region(self):
        customers, region = metro_customers(50, seed=1)
        assert len(customers) == 50
        assert all(region.contains(c.location) for c in customers)

    def test_deterministic(self):
        a, _ = metro_customers(20, seed=2)
        b, _ = metro_customers(20, seed=2)
        assert [c.location for c in a] == [c.location for c in b]

    def test_demand_range_respected(self):
        customers, _ = metro_customers(30, seed=3, demand_range=(2.0, 4.0))
        assert all(2.0 <= c.demand <= 4.0 for c in customers)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            metro_customers(0)
        with pytest.raises(ValueError):
            metro_customers(5, demand_range=(4.0, 2.0))


class TestMatrices:
    def test_gravity_matrix_total(self):
        cities = reference_population().largest(10)
        matrix = gravity_demand(cities, total_volume=500.0)
        assert matrix.total() == pytest.approx(500.0)

    def test_uniform_matrix_total(self):
        cities = reference_population().largest(6)
        matrix = uniform_demand([c.name for c in cities], total_volume=60.0)
        assert matrix.total() == pytest.approx(60.0)

    def test_hub_and_spoke(self):
        population = reference_population()
        cities = population.largest(5)
        matrix = hub_and_spoke_matrix(cities, hub_name=cities[0].name, total_volume=100.0)
        assert matrix.outgoing(cities[0].name) == pytest.approx(100.0)

    def test_hub_and_spoke_unknown_hub(self):
        cities = reference_population().largest(3)
        with pytest.raises(ValueError):
            hub_and_spoke_matrix(cities, hub_name="atlantis")

    def test_hub_skewed_blends_hub_and_gravity(self):
        from repro.workloads.matrices import hub_skewed_matrix

        cities = reference_population().largest(6)
        hub = cities[0].name
        matrix = hub_skewed_matrix(
            cities, hub, hub_fraction=0.6, total_volume=1000.0
        )
        assert matrix.total() == pytest.approx(1000.0)
        # The hub carries its dedicated 60% plus its gravity share.
        assert matrix.outgoing(hub) > 600.0
        # The gravity component keeps non-hub pairs non-empty.
        non_hub = [
            (a, b, v) for a, b, v in matrix.pairs() if hub not in (a, b)
        ]
        assert non_hub

    def test_hub_skewed_fraction_validated(self):
        from repro.workloads.matrices import hub_skewed_matrix

        cities = reference_population().largest(3)
        with pytest.raises(ValueError):
            hub_skewed_matrix(cities, cities[0].name, hub_fraction=1.5)


class TestScenarios:
    def test_all_scenarios_have_unique_ids(self):
        scenarios = all_scenarios()
        ids = [s.experiment_id for s in scenarios]
        assert len(ids) == len(set(ids)) == 13
        assert ids == [f"E{i}" for i in range(1, 14)]

    def test_every_scenario_documents_a_claim(self):
        for scenario in all_scenarios():
            assert scenario.paper_claim
            assert scenario.parameters

    def test_fkp_scenario_alphas_cover_regimes(self):
        from repro.core.fkp import alpha_regime

        scenario = fkp_phase_scenario(num_nodes=1000)
        regimes = {alpha_regime(a, 1000) for a in scenario.parameters["alphas"]}
        assert regimes == {"star", "power-law", "exponential"}


class TestScenarioFor:
    def test_full_matches_factories(self):
        from repro.workloads.scenarios import SCENARIO_FACTORIES, scenario_for

        for experiment_id, factory in SCENARIO_FACTORIES.items():
            assert scenario_for(experiment_id).parameters == factory().parameters

    def test_smoke_variants_shrink_the_sweep(self):
        from repro.workloads.scenarios import scenario_for

        full = scenario_for("E1").parameters
        smoke = scenario_for("E1", smoke=True).parameters
        assert smoke["num_nodes"] < full["num_nodes"]
        assert smoke["seed"] == full["seed"]

    def test_unknown_experiment_rejected(self):
        from repro.workloads.scenarios import scenario_for

        with pytest.raises(KeyError):
            scenario_for("E42")

    def test_ablations_scenario_is_supplementary(self):
        from repro.workloads.scenarios import ablations_scenario, all_scenarios

        assert ablations_scenario().experiment_id == "E9"
        # Supplementary scenarios (E9+) list alongside the paper's E1-E8.
        assert sum(s.experiment_id == "E9" for s in all_scenarios()) == 1
