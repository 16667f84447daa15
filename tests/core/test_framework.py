"""Tests for the HOT framework's generators at each scale, called directly.

One generator per formulation: the FKP tradeoff tree, buy-at-bulk access
trees, metro access networks, single-ISP designs and the Internet of ISPs.
"""

from repro.core import (
    best_of_runs,
    design_access_network,
    generate_fkp_tree,
    generate_internet,
    generate_isp,
    random_instance,
    solve_buy_at_bulk,
)

SEED = 42


class TestFKP:
    def test_generate_fkp_tree(self):
        topo = generate_fkp_tree(100, alpha=4.0, seed=SEED)
        assert topo.is_tree()
        assert topo.num_nodes == 100


class TestBuyAtBulk:
    def test_best_of_not_worse_than_single(self):
        instance = random_instance(50, seed=4)
        single = solve_buy_at_bulk(instance, "meyerson", seed=1)
        best = best_of_runs(instance, num_runs=4, seed=1)
        assert best.is_feasible()
        assert best.total_cost() <= single.total_cost() + 1e-9


class TestMetroAndISP:
    def test_generate_metro(self):
        result = design_access_network(30, seed=SEED)
        assert result.topology.is_connected()

    def test_generate_isp(self):
        design = generate_isp(num_cities=6, seed=SEED, customers_per_city_scale=2.0)
        assert design.topology.is_connected()
        assert design.pop_count() >= 2

    def test_generate_internet(self):
        internet = generate_internet(num_isps=5, num_cities=8, seed=SEED)
        assert internet.num_ases() == 5
