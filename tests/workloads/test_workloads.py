"""Tests for repro.workloads (cities, matrices) and the experiment suites' grids."""

import math

import pytest

from repro.core.fkp import alpha_regime
from repro.experiments import available_experiments, get_suite
from repro.experiments.suites.e1_fkp_phase import alphas
from repro.geography.demand import gravity_demand, uniform_demand
from repro.workloads.cities import (
    REFERENCE_CITIES,
    metro_customers,
    reference_population,
    scaled_population,
)
from repro.workloads.matrices import hub_and_spoke_matrix


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
        for demand_range in [(math.nan, 2.0), (1.0, math.inf)]:
            with pytest.raises(ValueError, match="demand_range"):
                metro_customers(5, demand_range=demand_range)


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
        from repro.experiments import suites

        modules = [getattr(suites, name) for name in suites.__all__]
        ids = [module.SUITE.scenario_id for module in modules]
        assert len(ids) == len(set(ids)) == 13
        assert ids == [f"E{i}" for i in range(1, 14)]
        # No suite module's registration is shadowed by another's.
        assert all(get_suite(module.SUITE.scenario_id) is module.SUITE for module in modules)


class TestSuiteGrids:
    def test_every_suite_documents_a_claim_and_a_seeded_grid(self):
        for experiment_id in (f"E{i}" for i in range(1, 14)):
            suite = get_suite(experiment_id)
            assert suite.claim, experiment_id
            assert isinstance(suite.base_seed, int), experiment_id
            # A smoke run replaces values of existing axes only.
            assert set(suite.smoke) <= set(suite.parameters) - {"seed"}, experiment_id

    def test_fkp_alphas_cover_regimes(self):
        regimes = {alpha_regime(alpha, 1000) for alpha in alphas(1000)}
        assert regimes == {"star", "power-law", "exponential"}

    def test_smoke_grid_shrinks_the_sweep(self):
        suite = get_suite("E1")
        full, smoke = suite.grid(False), suite.grid(True)
        assert smoke["num_nodes"] < full["num_nodes"]
        assert smoke["seed"] == full["seed"]
        assert len(suite.expand(True)) == len(suite.expand(False))

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            get_suite("E42")
        assert "E42" not in available_experiments()
