"""Tests for repro.core.buyatbulk — problem definition and deterministic baselines."""

import math

import pytest

from repro.core.buyatbulk import (
    BuyAtBulkInstance,
    Customer,
    core_node_id,
    random_instance,
    route_tree_flows,
    solve_direct_star,
    solve_greedy_aggregation,
    solve_mst_routing,
    trivial_lower_bound,
)
from repro.economics.cables import linear_catalog
from repro.topology.node import NodeRole


class TestCustomer:
    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            Customer("c", (0, 0), demand=-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_bad_demand_rejected_where_it_enters(self, bad):
        with pytest.raises(ValueError, match="customer demand"):
            Customer("c", (0, 0), demand=bad)
        for demand_range in [(bad, 2.0), (1.0, bad)]:
            with pytest.raises(ValueError, match="demand_range"):
                random_instance(5, demand_range=demand_range)


class TestInstance:
    def test_requires_customers_and_cores(self):
        with pytest.raises(ValueError):
            BuyAtBulkInstance(customers=[], core_locations=[(0, 0)])
        with pytest.raises(ValueError):
            BuyAtBulkInstance(
                customers=[Customer("c", (0, 0))], core_locations=[]
            )

    def test_duplicate_customer_ids_rejected(self):
        customers = [Customer("c", (0, 0)), Customer("c", (1, 1))]
        with pytest.raises(ValueError):
            BuyAtBulkInstance(customers=customers)

    def test_total_demand(self, small_instance):
        assert small_instance.total_demand == pytest.approx(15.0)

    def test_nearest_core(self, small_instance):
        index, distance = small_instance.nearest_core((0.5, 0.6))
        assert index == 0
        assert distance == pytest.approx(0.1)

    def test_random_instance_reproducible(self):
        a = random_instance(30, seed=1)
        b = random_instance(30, seed=1)
        assert [c.location for c in a.customers] == [c.location for c in b.customers]

    def test_random_instance_clustered(self):
        instance = random_instance(30, seed=2, clustered=True)
        assert len(instance.customers) == 30

    def test_random_instance_invalid_arguments(self):
        with pytest.raises(ValueError):
            random_instance(0)
        with pytest.raises(ValueError):
            random_instance(5, demand_range=(5.0, 1.0))


class TestBaselines:
    @pytest.mark.parametrize(
        "solver", [solve_direct_star, solve_mst_routing, solve_greedy_aggregation]
    )
    def test_solution_is_feasible_tree(self, medium_instance, solver):
        solution = solver(medium_instance)
        assert solution.is_feasible()
        assert solution.topology.is_tree()

    def test_star_connects_every_customer_directly_to_core(self, small_instance):
        solution = solve_direct_star(small_instance)
        core = core_node_id(0)
        assert solution.topology.degree(core) == len(small_instance.customers)

    def test_star_is_most_expensive_with_economies_of_scale(self, medium_instance):
        star_cost = solve_direct_star(medium_instance).total_cost()
        mst_cost = solve_mst_routing(medium_instance).total_cost()
        greedy_cost = solve_greedy_aggregation(medium_instance).total_cost()
        assert star_cost > mst_cost
        assert star_cost > greedy_cost

    def test_star_is_optimal_under_linear_costs(self):
        # Without economies of scale (pure linear costs), direct connection is
        # optimal, so the star must not be beaten by the aggregation baselines.
        instance = random_instance(40, seed=3, catalog=linear_catalog())
        star_cost = solve_direct_star(instance).total_cost()
        greedy_cost = solve_greedy_aggregation(instance).total_cost()
        assert star_cost <= greedy_cost + 1e-6

    def test_costs_exceed_lower_bound(self, medium_instance):
        bound = trivial_lower_bound(medium_instance)
        for solver in (solve_direct_star, solve_mst_routing, solve_greedy_aggregation):
            assert solver(medium_instance).total_cost() >= bound * 0.999


class TestRouting:
    def test_route_tree_flows_conserves_demand_at_core(self, small_instance):
        solution = solve_direct_star(small_instance)
        core = core_node_id(0)
        incoming = sum(link.load for link in solution.topology.incident_links(core))
        assert incoming == pytest.approx(small_instance.total_demand)

    def test_leaf_links_carry_exactly_leaf_demand(self, small_instance):
        solution = solve_mst_routing(small_instance)
        topo = solution.topology
        for customer in small_instance.customers:
            if topo.degree(customer.customer_id) == 1:
                link = topo.incident_links(customer.customer_id)[0]
                assert link.load >= customer.demand - 1e-9

    def test_every_link_has_cable_and_capacity(self, medium_instance):
        solution = solve_greedy_aggregation(medium_instance)
        for link in solution.topology.links():
            assert link.cable is not None
            assert link.capacity is not None
            assert link.capacity >= link.load - 1e-9

    def test_route_tree_flows_requires_core(self, small_instance):
        from repro.topology.graph import Topology

        topo = Topology()
        topo.add_node("cust0", role=NodeRole.CUSTOMER)
        with pytest.raises(ValueError):
            route_tree_flows(topo, small_instance)

    def test_validate_detects_missing_customer(self, small_instance):
        solution = solve_direct_star(small_instance)
        solution.topology.remove_node("c3")
        problems = solution.validate()
        assert any("c3" in p for p in problems)
        assert not solution.is_feasible()

    def test_validate_detects_disconnected_customer(self, small_instance):
        solution = solve_direct_star(small_instance)
        solution.topology.remove_link("c2", core_node_id(0))
        assert any("not connected" in p for p in solution.validate())


class TestLowerBound:
    def test_positive_and_below_star(self, medium_instance):
        bound = trivial_lower_bound(medium_instance)
        assert bound > 0
        assert bound <= solve_direct_star(medium_instance).total_cost()
