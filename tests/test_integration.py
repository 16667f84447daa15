"""End-to-end integration tests across subpackages.

These tests exercise the same pipelines the examples and benchmarks use:
generate with the optimization-driven models, route and provision traffic,
evaluate with the metric suite, serialize, and compare against baselines.
"""

import pytest

from repro.core import (
    BUY_AT_BULK_ALGORITHMS,
    BuyAtBulkInstance,
    CostObjective,
    generate_fkp_tree,
    generate_internet,
    generate_isp,
    random_instance,
    solve_buy_at_bulk,
    solve_direct_star,
    solve_meyerson,
)
from repro.core.constraints import CapacityConstraint, default_router_constraints
from repro.economics import default_catalog, provision_topology
from repro.generators import BarabasiAlbertGenerator
from repro.geography import DemandMatrix
from repro.metrics import classify_tail, compare_topologies, evaluate_topology, report_table
from repro.routing import route_demand, utilization_report
from repro.topology import NodeRole, summarize_hierarchy, topology_from_dict, topology_to_dict
from repro.workloads import metro_customers


class TestAccessDesignPipeline:
    """Instance → Meyerson solve → provision → validate → serialize."""

    def test_full_pipeline(self):
        instance = random_instance(120, seed=10)
        solution = solve_meyerson(instance, seed=10)
        assert solution.is_feasible()
        assert solution.topology.is_tree()

        # Cables cover the routed flows.
        assert CapacityConstraint().is_satisfied(solution.topology)

        # The degree tail is exponential (the paper's §4.2 claim).
        verdict = classify_tail(solution.topology.degree_sequence()).verdict
        assert verdict in ("exponential", "inconclusive")

        # The solution beats the naive star and survives serialization.
        assert solution.total_cost() < solve_direct_star(instance).total_cost()
        restored = topology_from_dict(topology_to_dict(solution.topology))
        assert restored.num_links == solution.topology.num_links

    def test_metro_workload_roundtrip(self):
        customers, region = metro_customers(80, seed=4)
        instance = BuyAtBulkInstance(customers=customers, core_locations=[region.center])
        costs = {
            name: solve_buy_at_bulk(instance, name, seed=4).total_cost()
            for name in BUY_AT_BULK_ALGORITHMS
        }
        assert costs["star"] == max(costs.values())


class TestISPDesignPipeline:
    """Population → ISP design → routing → utilization → metrics."""

    def test_isp_metrics_and_hierarchy(self):
        design = generate_isp(num_cities=8, seed=12, customers_per_city_scale=3.0)
        topo = design.topology
        assert topo.is_connected()

        summary = summarize_hierarchy(topo)
        assert summary.count("core") > 0
        assert summary.count("customer") > 0

        report = evaluate_topology(topo, sample_size=20, seed=1)
        assert report.get("num_nodes") == topo.num_nodes
        assert report.get("mean_degree") > 1.0

        cost = CostObjective(default_catalog()).cost(topo)
        assert cost > 0

    def test_access_traffic_fits_provisioned_capacity(self):
        design = generate_isp(num_cities=6, seed=14, customers_per_city_scale=3.0)
        topo = design.topology
        # Every customer sends its demand to one core.
        core = next(n.node_id for n in topo.nodes() if n.role == NodeRole.CORE)
        customers = [n for n in topo.nodes() if n.role == NodeRole.CUSTOMER and n.demand > 0]
        demand = DemandMatrix.from_arrays(
            [core] + [c.node_id for c in customers],
            [0] * len(customers),
            range(1, len(customers) + 1),
            [c.demand for c in customers],
        )
        flow = route_demand(topo, demand)
        assert flow.routed_pairs == len(customers)
        assert flow.unrouted_volume == pytest.approx(0.0)
        # Re-provision for the routed access traffic and confirm no overloads remain.
        provision_topology(topo, default_catalog(), flow=flow)
        report = utilization_report(topo, flow)
        assert report.peak_utilization <= 1.0 + 1e-9
        assert CapacityConstraint().violations(topo) == []
        # Routers stay within their line-card limits.  Customers are left
        # out: the access trees let a customer relay for others past its
        # limit (city00:city00:cust16 has degree 5 here, against 4).
        degree = default_router_constraints().constraints[0]
        over_limit = [
            node.node_id
            for node in topo.nodes()
            if node.role != NodeRole.CUSTOMER
            and topo.degree(node.node_id) > degree.limit_for(node.role)
        ]
        assert over_limit == []

    def test_internet_pipeline(self):
        internet = generate_internet(num_isps=6, num_cities=10, seed=16)
        as_graph = internet.as_graph
        assert as_graph.num_nodes == 6
        merged = internet.router_level_graph()
        assert merged.num_nodes > as_graph.num_nodes
        # AS graph and router-level graph are structurally different objects.
        assert merged.num_links >= as_graph.num_links


class TestGeneratorComparisonPipeline:
    def test_hot_vs_descriptive_report(self):
        topologies = {
            "fkp": generate_fkp_tree(200, alpha=4.0, seed=2),
            "meyerson": solve_meyerson(random_instance(200, seed=2), seed=2).topology,
            "ba": BarabasiAlbertGenerator().generate(200, seed=2),
        }
        reports = compare_topologies(topologies, sample_size=25, seed=2)
        table = report_table(reports)
        assert all(name in table for name in topologies)
        by_name = {r.name: r for r in reports}
        # Both optimization-driven designs are trees; BA is not.
        assert by_name["fkp"].get("cycle_edge_fraction") == pytest.approx(0.0)
        assert by_name["meyerson"].get("cycle_edge_fraction") == pytest.approx(0.0)
        assert by_name["ba"].get("cycle_edge_fraction") > 0.0
