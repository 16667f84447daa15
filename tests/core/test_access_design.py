"""Tests for repro.core.access_design — metro concentrator + feeder design."""

import math

import pytest

from repro.core.access_design import (
    AccessDesignParameters,
    AccessNetworkDesigner,
    design_access_network,
)
from repro.core.buyatbulk import Customer
from repro.geography.regions import metro_region
from repro.topology.node import NodeRole


class TestParameters:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            AccessDesignParameters(concentrator_cost=-1.0)
        with pytest.raises(ValueError):
            AccessDesignParameters(clients_per_concentrator=0)
        with pytest.raises(ValueError):
            AccessDesignParameters(feeder_algorithm="quantum")

    def test_non_finite_concentrator_cost_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="concentrator_cost"):
                AccessDesignParameters(concentrator_cost=bad)


class TestDesigner:
    def build_customers(self, n=40, seed=1):
        region = metro_region()
        import random

        rng = random.Random(seed)
        locations = region.sample_clustered(n, 4, rng)
        return [
            Customer(f"c{i}", locations[i], demand=rng.uniform(1, 5)) for i in range(n)
        ], region

    def test_requires_customers(self):
        with pytest.raises(ValueError):
            AccessNetworkDesigner(customers=[], core_location=(0, 0))

    def test_design_is_connected_and_serves_all(self):
        customers, region = self.build_customers()
        designer = AccessNetworkDesigner(
            customers=customers,
            core_location=region.center,
            region=region,
            parameters=AccessDesignParameters(seed=1),
        )
        result = designer.design()
        topo = result.topology
        assert topo.is_connected()
        core = [n for n in topo.nodes() if n.role == NodeRole.CORE]
        assert len(core) == 1
        reachable = set(topo.bfs_order(core[0].node_id))
        for customer in customers:
            assert customer.customer_id in reachable

    def test_concentrator_count_follows_sizing_rule(self):
        customers, region = self.build_customers(n=50)
        designer = AccessNetworkDesigner(
            customers=customers,
            core_location=region.center,
            region=region,
            parameters=AccessDesignParameters(clients_per_concentrator=10, seed=2),
        )
        result = designer.design()
        assert len(result.concentrator_ids) == 5

    def test_equipment_cost(self):
        customers, region = self.build_customers(n=30)
        designer = AccessNetworkDesigner(
            customers=customers,
            core_location=region.center,
            region=region,
            parameters=AccessDesignParameters(
                concentrator_cost=100.0, clients_per_concentrator=10, seed=3
            ),
        )
        result = designer.design()
        assert result.equipment_cost == pytest.approx(100.0 * len(result.concentrator_ids))
        assert result.total_cost() > result.topology.total_cost()

    @pytest.mark.parametrize("algorithm", ["meyerson", "greedy", "mst", "star"])
    def test_all_feeder_algorithms_produce_connected_designs(self, algorithm):
        customers, region = self.build_customers(n=25)
        designer = AccessNetworkDesigner(
            customers=customers,
            core_location=region.center,
            region=region,
            parameters=AccessDesignParameters(feeder_algorithm=algorithm, seed=4),
        )
        assert designer.design().topology.is_connected()

    def test_redundancy_adds_links(self):
        customers, region = self.build_customers(n=60)
        base_params = AccessDesignParameters(seed=5, clients_per_concentrator=15)
        redundant_params = AccessDesignParameters(
            seed=5, clients_per_concentrator=15, redundancy=True
        )
        base = AccessNetworkDesigner(
            customers, region.center, region=region, parameters=base_params
        ).design()
        redundant = AccessNetworkDesigner(
            customers, region.center, region=region, parameters=redundant_params
        ).design()
        assert redundant.topology.num_links > base.topology.num_links
        assert not redundant.topology.is_tree()


class TestConvenienceHelper:
    def test_design_access_network(self):
        result = design_access_network(30, seed=7)
        assert result.topology.is_connected()
        assert result.total_cost() > 0

    def test_deterministic_with_seed(self):
        a = design_access_network(25, seed=9)
        b = design_access_network(25, seed=9)
        assert a.topology.num_links == b.topology.num_links
        assert a.total_cost() == pytest.approx(b.total_cost())
