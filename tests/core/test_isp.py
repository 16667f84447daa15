"""Tests for repro.core.isp — the single-ISP generator (paper §2.2)."""

import math

import pytest

from repro.core.isp import ISPGenerator, ISPParameters, generate_isp
from repro.geography.population import synthetic_population
from repro.geography.regions import national_region
from repro.topology.hierarchy import summarize_hierarchy
from repro.topology.node import NodeRole


@pytest.fixture(scope="module")
def small_isp():
    """A small cost-driven ISP reused by several read-only tests."""
    return generate_isp(num_cities=8, seed=21, customers_per_city_scale=3.0)


class TestParameters:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ISPParameters(num_cities=1)
        with pytest.raises(ValueError):
            ISPParameters(coverage_fraction=0.0)
        with pytest.raises(ValueError):
            ISPParameters(coverage_fraction=1.5)
        with pytest.raises(ValueError):
            ISPParameters(customers_per_city_scale=-1.0)
        with pytest.raises(ValueError):
            ISPParameters(objective="fame")

    def test_non_finite_customer_scale_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="customers_per_city_scale"):
                ISPParameters(customers_per_city_scale=bad)


class TestGeneratedTopology:
    def test_connected(self, small_isp):
        assert small_isp.topology.is_connected()

    def test_hierarchy_levels_present(self, small_isp):
        summary = summarize_hierarchy(small_isp.topology)
        assert summary.count("core") == small_isp.pop_count()
        assert summary.count("customer") > 0
        assert summary.count("distribution") + summary.count("access") > 0

    def test_pop_cities_are_largest(self, small_isp):
        population = small_isp.population
        largest_names = {c.name for c in population.largest(small_isp.pop_count())}
        assert set(small_isp.pop_cities) == largest_names

    def test_backbone_links_provisioned(self, small_isp):
        backbone = set(small_isp.backbone_nodes())
        backbone_links = [
            link
            for link in small_isp.topology.links()
            if link.source in backbone and link.target in backbone
        ]
        assert backbone_links
        assert all(link.cable is not None for link in backbone_links)
        assert all(
            link.capacity >= link.load - 1e-9 for link in backbone_links
        )

    def test_objective_value_recorded(self, small_isp):
        assert small_isp.objective_value == small_isp.topology.metadata["objective_value"]

    def test_customer_count_scales_with_population(self):
        small = generate_isp(num_cities=6, seed=3, customers_per_city_scale=2.0)
        large = generate_isp(num_cities=6, seed=3, customers_per_city_scale=6.0)
        assert len(large.customer_nodes()) > len(small.customer_nodes())

    def test_deterministic_with_seed(self):
        a = generate_isp(num_cities=6, seed=4, customers_per_city_scale=2.0)
        b = generate_isp(num_cities=6, seed=4, customers_per_city_scale=2.0)
        assert a.topology.num_nodes == b.topology.num_nodes
        assert a.topology.num_links == b.topology.num_links


class TestCoverageAndObjectives:
    def test_coverage_fraction_controls_pops(self):
        narrow = generate_isp(
            num_cities=10, seed=5, coverage_fraction=0.3, customers_per_city_scale=1.0
        )
        wide = generate_isp(
            num_cities=10, seed=5, coverage_fraction=0.9, customers_per_city_scale=1.0
        )
        assert wide.pop_count() > narrow.pop_count()

    def test_profit_objective_enters_at_most_as_many_cities(self):
        cost_driven = generate_isp(
            num_cities=10, seed=6, objective="cost", customers_per_city_scale=1.0
        )
        profit_driven = generate_isp(
            num_cities=10, seed=6, objective="profit", customers_per_city_scale=1.0
        )
        assert profit_driven.pop_count() <= cost_driven.pop_count()

    def test_backbone_only_isp(self):
        design = generate_isp(num_cities=8, seed=7, customers_per_city_scale=0.0)
        roles = {n.role for n in design.topology.nodes()}
        assert NodeRole.CORE in roles


class TestExternalPopulation:
    def test_generator_accepts_shared_population(self):
        population = synthetic_population(national_region(), 12, seed=8)
        generator = ISPGenerator(
            population=population,
            parameters=ISPParameters(num_cities=12, seed=8, customers_per_city_scale=1.0),
        )
        design = generator.generate(name="shared-pop-isp")
        assert design.topology.name == "shared-pop-isp"
        assert set(design.pop_cities) <= {c.name for c in population.cities}
