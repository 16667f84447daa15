"""Tests for repro.core.evolution — incremental multi-period growth."""

import math
from unittest import mock

import pytest

from repro.core.evolution import (
    GrowthParameters,
    GrowthSimulator,
    GrowthTrace,
    simulate_growth,
)
from repro.metrics.fits import classify_tail
from repro.topology.node import NodeRole

from oracles import scan_cheapest_attachment


@pytest.fixture(scope="module")
def small_trace() -> GrowthTrace:
    return simulate_growth(
        periods=4, initial_customers=20, customers_per_period=10, seed=3
    )


class TestParameters:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            GrowthParameters(periods=0)
        with pytest.raises(ValueError):
            GrowthParameters(initial_customers=0)
        with pytest.raises(ValueError):
            GrowthParameters(customers_per_period=-1)
        with pytest.raises(ValueError):
            GrowthParameters(demand_growth_rate=-0.1)
        with pytest.raises(ValueError):
            GrowthParameters(budget_per_period=0.0)
        with pytest.raises(ValueError, match="demand_growth_rate"):
            GrowthParameters(demand_growth_rate=math.nan)
        with pytest.raises(ValueError, match="demand_growth_rate"):
            GrowthParameters(demand_growth_rate=math.inf)
        with pytest.raises(ValueError, match="budget_per_period"):
            GrowthParameters(budget_per_period=math.nan)


class TestGrowthTrace:
    def test_one_record_per_period_plus_initial(self, small_trace):
        assert len(small_trace.records) == 5
        assert [r.period for r in small_trace.records] == [0, 1, 2, 3, 4]

    def test_customer_count_grows(self, small_trace):
        counts = [r.num_customers for r in small_trace.records]
        assert counts[0] == 20
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        assert counts[-1] == 20 + 4 * 10

    def test_network_stays_a_connected_tree(self, small_trace):
        assert small_trace.topology.is_tree()
        assert small_trace.topology.is_connected()

    def test_demand_grows_each_period(self, small_trace):
        demands = [r.total_demand for r in small_trace.records]
        assert all(a < b for a, b in zip(demands, demands[1:]))

    def test_cumulative_cost_monotone(self, small_trace):
        costs = [r.cumulative_cost for r in small_trace.records]
        assert all(a <= b + 1e-9 for a, b in zip(costs, costs[1:]))

    def test_total_capital_positive(self, small_trace):
        assert small_trace.total_capital() > 0

    def test_final_record(self, small_trace):
        assert small_trace.final().period == 4

    def test_as_rows_matches_records(self, small_trace):
        rows = small_trace.as_rows()
        assert len(rows) == len(small_trace.records)
        assert rows[0]["num_customers"] == 20

    def test_empty_trace_final_raises(self):
        from repro.topology.graph import Topology

        with pytest.raises(ValueError):
            GrowthTrace(topology=Topology()).final()


class TestGrowthBehaviour:
    def test_deterministic_with_seed(self):
        a = simulate_growth(periods=3, initial_customers=15, customers_per_period=5, seed=9)
        b = simulate_growth(periods=3, initial_customers=15, customers_per_period=5, seed=9)
        assert a.final().cumulative_cost == pytest.approx(b.final().cumulative_cost)
        assert a.topology.num_links == b.topology.num_links

    def test_budget_defers_customers(self):
        unconstrained = simulate_growth(
            periods=3, initial_customers=20, customers_per_period=15, seed=5
        )
        constrained = simulate_growth(
            periods=3,
            initial_customers=20,
            customers_per_period=15,
            seed=5,
            budget_per_period=30.0,
        )
        assert constrained.final().num_customers <= unconstrained.final().num_customers
        assert constrained.final().deferred_customers >= 0
        # Spending respects the budget each period (upgrades excluded from the cap).
        for record in constrained.records:
            assert record.capital_spent <= 30.0 + record.upgrade_count * 1e6  # upgrades tracked separately

    def test_exponential_tail_persists_through_growth(self):
        trace = simulate_growth(
            periods=6, initial_customers=40, customers_per_period=30, seed=7
        )
        verdict = classify_tail(trace.topology.degree_sequence()).verdict
        assert verdict in ("exponential", "inconclusive")
        assert trace.final().max_degree < trace.final().num_customers / 4

    def test_demand_growth_triggers_upgrades(self):
        trace = simulate_growth(
            periods=6,
            initial_customers=30,
            customers_per_period=0,
            seed=11,
            demand_growth_rate=0.6,
        )
        # With no new customers, all capital after period 0 comes from upgrades.
        upgrades = sum(r.upgrade_count for r in trace.records[1:])
        assert upgrades > 0

    def test_degree_constraint_respected(self):
        simulator = GrowthSimulator(
            GrowthParameters(periods=3, initial_customers=30, customers_per_period=20, seed=13)
        )
        trace = simulator.run()
        limit = simulator.constraints.constraints[0].limit_for(NodeRole.CUSTOMER)
        for node in trace.topology.nodes():
            if node.role == NodeRole.CUSTOMER:
                assert trace.topology.degree(node.node_id) <= limit

    def test_all_links_provisioned(self, small_trace):
        for link in small_trace.topology.links():
            assert link.cable is not None
            assert link.capacity >= link.load - 1e-9

    def test_state_backed_records_match_direct_rederivation(self, small_trace):
        """The IncrementalState-maintained period stats equal re-deriving
        them from the topology (bit-identical: the per-period rebuild sums
        in the same link/node insertion order as the direct sweeps)."""
        topo = small_trace.topology
        final = small_trace.final()
        assert final.cumulative_cost == topo.total_install_cost()
        assert final.total_demand == sum(
            n.demand for n in topo.nodes() if n.role == NodeRole.CUSTOMER
        )


class TestSpatialAttachment:
    """The grid-backed cheapest-attachment path must match the full scan."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_spatial_matches_scan_end_to_end(self, seed):
        params = GrowthParameters(
            periods=4,
            initial_customers=25,
            customers_per_period=12,
            seed=seed,
            budget_per_period=80.0,
        )
        spatial = GrowthSimulator(params).run()
        with mock.patch.object(GrowthSimulator, "_cheapest_attachment", scan_cheapest_attachment):
            scan = GrowthSimulator(params).run()
        assert spatial.as_rows() == scan.as_rows()
        spatial_edges = sorted(map(repr, spatial.topology.link_keys()))
        scan_edges = sorted(map(repr, scan.topology.link_keys()))
        assert spatial_edges == scan_edges

    @pytest.mark.parametrize("seed", [5, 6])
    def test_per_query_brute_force_equivalence(self, seed):
        """Every single argmin answer equals the brute-force scan's answer."""
        from repro.core.buyatbulk import Customer

        simulator = GrowthSimulator(
            GrowthParameters(
                periods=2, initial_customers=30, customers_per_period=10, seed=seed
            )
        )
        trace = simulator.run()
        topology = trace.topology
        rng = __import__("random").Random(seed)
        for i in range(60):
            probe = Customer(
                customer_id=f"probe{i}",
                location=(rng.random(), rng.random()),
                demand=rng.uniform(1.0, 10.0),
            )
            fast = simulator._cheapest_attachment(topology, probe)
            slow = scan_cheapest_attachment(simulator, topology, probe)
            assert fast == slow

    def test_degree_limited_targets_are_excluded(self):
        from repro.core.buyatbulk import Customer
        from repro.topology.node import NodeRole as Role

        simulator = GrowthSimulator(
            GrowthParameters(periods=1, initial_customers=10, customers_per_period=5, seed=3)
        )
        trace = simulator.run()
        topology = trace.topology
        # Saturate one customer node artificially and re-register the block.
        victim = next(
            n.node_id for n in topology.nodes() if n.role == Role.CUSTOMER
        )
        limit = simulator._attachment_limit(Role.CUSTOMER)
        while topology.degree(victim) + 1 <= limit:
            extra = topology.add_node(
                f"pad{topology.degree(victim)}", role=Role.CUSTOMER,
                location=(0.0, 0.0), demand=1.0,
            )
            topology.add_link(victim, extra.node_id)
            simulator._register_attachment_target(extra)
            simulator._refresh_blocked(topology, victim)
            simulator._refresh_blocked(topology, extra.node_id)
        probe = Customer("probe", topology.node(victim).location, 2.0)
        fast = simulator._cheapest_attachment(topology, probe)
        slow = scan_cheapest_attachment(simulator, topology, probe)
        assert fast == slow
        assert fast is None or fast[0] != victim
