"""Tests for repro.core.framework.HOTGenerator — the unified API."""

import pytest

from repro.core.access_design import design_access_network
from repro.core.buyatbulk import random_instance
from repro.core.framework import BUY_AT_BULK_SOLVERS, HOTGenerator
from repro.core.objectives import ProfitObjective


@pytest.fixture(scope="module")
def generator():
    return HOTGenerator(seed=42)


class TestFKP:
    def test_generate_fkp_tree(self, generator):
        topo = generator.generate_fkp_tree(100, alpha=4.0)
        assert topo.is_tree()
        assert topo.num_nodes == 100

    def test_default_seed_applied(self):
        a = HOTGenerator(seed=1).generate_fkp_tree(60, alpha=4.0)
        b = HOTGenerator(seed=1).generate_fkp_tree(60, alpha=4.0)
        assert sorted(a.link_keys()) == sorted(b.link_keys())

    def test_explicit_seed_overrides_default(self):
        gen = HOTGenerator(seed=1)
        a = gen.generate_fkp_tree(60, alpha=4.0, seed=2)
        b = gen.generate_fkp_tree(60, alpha=4.0, seed=3)
        assert sorted(a.link_keys()) != sorted(b.link_keys())


class TestBuyAtBulk:
    def test_registry_contains_all_algorithms(self):
        assert set(BUY_AT_BULK_SOLVERS) == {"meyerson", "greedy", "mst", "star"}

    @pytest.mark.parametrize("algorithm", ["meyerson", "greedy", "mst", "star"])
    def test_generate_access_tree(self, generator, algorithm):
        solution = generator.generate_access_tree(40, algorithm=algorithm)
        assert solution.is_feasible()

    def test_unknown_algorithm_rejected(self, generator):
        instance = random_instance(10, seed=1)
        with pytest.raises(ValueError):
            generator.solve_buy_at_bulk(instance, algorithm="oracle")

    def test_best_of_not_worse_than_single(self, generator):
        instance = random_instance(50, seed=4)
        single = generator.solve_buy_at_bulk(instance, algorithm="meyerson", seed=1)
        best = generator.solve_buy_at_bulk(instance, algorithm="meyerson", seed=1, best_of=4)
        assert best.total_cost() <= single.total_cost() + 1e-9

    def test_compare_algorithms_returns_all(self, generator):
        instance = random_instance(30, seed=5)
        for algorithm in BUY_AT_BULK_SOLVERS:
            solution = generator.solve_buy_at_bulk(instance, algorithm=algorithm, seed=1)
            assert solution.is_feasible(), algorithm


class TestMetroAndISP:
    def test_generate_metro(self, generator):
        result = design_access_network(30, seed=generator.seed, catalog=generator.catalog)
        assert result.topology.is_connected()

    def test_generate_isp(self, generator):
        design = generator.generate_isp(num_cities=6, customers_per_city_scale=2.0)
        assert design.topology.is_connected()
        assert design.pop_count() >= 2

    def test_profit_objective_propagates(self):
        generator = HOTGenerator(seed=2, objective=ProfitObjective())
        design = generator.generate_isp(num_cities=6, customers_per_city_scale=2.0)
        assert design.parameters.objective == "profit"

    def test_generate_internet(self, generator):
        internet = generator.generate_internet(num_isps=5, num_cities=8)
        assert internet.num_ases() == 5
