"""Tests for repro.routing.assignment."""

import pytest

from repro.geography.demand import DemandMatrix
from repro.routing.assignment import assign_demand, route_customer_demand_to_core
from repro.topology.graph import Topology
from repro.topology.node import NodeRole

from oracles import per_pair_assign


def backbone() -> Topology:
    topo = Topology()
    for name, loc in [("x", (0, 0)), ("y", (1, 0)), ("z", (2, 0))]:
        topo.add_node(name, location=loc)
    topo.add_link("x", "y")
    topo.add_link("y", "z")
    return topo


class TestAssignDemand:
    def test_loads_accumulate_along_path(self):
        topo = backbone()
        demand = DemandMatrix(endpoints=["x", "z"])
        demand.set_demand("x", "z", 7.0)
        result = assign_demand(topo, demand)
        assert result.routed_volume == pytest.approx(7.0)
        assert topo.link("x", "y").load == pytest.approx(7.0)
        assert topo.link("y", "z").load == pytest.approx(7.0)

    def test_multiple_pairs_sum(self):
        topo = backbone()
        demand = DemandMatrix(endpoints=["x", "y", "z"])
        demand.set_demand("x", "y", 2.0)
        demand.set_demand("x", "z", 3.0)
        assign_demand(topo, demand)
        assert topo.link("x", "y").load == pytest.approx(5.0)
        assert topo.link("y", "z").load == pytest.approx(3.0)

    def test_unrouted_missing_node(self):
        topo = backbone()
        demand = DemandMatrix(endpoints=["x", "ghost"])
        demand.set_demand("x", "ghost", 4.0)
        result = assign_demand(topo, demand)
        assert result.unrouted_volume == pytest.approx(4.0)
        assert result.routed_volume == 0.0

    def test_endpoint_map(self):
        topo = backbone()
        demand = DemandMatrix(endpoints=["alpha", "omega"])
        demand.set_demand("alpha", "omega", 1.0)
        result = assign_demand(topo, demand, endpoint_map={"alpha": "x", "omega": "z"})
        assert result.routed_volume == pytest.approx(1.0)

    def test_reset_loads(self):
        topo = backbone()
        topo.link("x", "y").load = 99.0
        demand = DemandMatrix(endpoints=["x", "z"])
        demand.set_demand("x", "z", 1.0)
        assign_demand(topo, demand, reset_loads=True)
        assert topo.link("x", "y").load == pytest.approx(1.0)

    def test_paths_recorded_by_per_pair_reference(self):
        topo = backbone()
        demand = DemandMatrix(endpoints=["x", "z"])
        demand.set_demand("x", "z", 1.0)
        result = per_pair_assign(topo, demand)
        assert result.paths[("x", "z")] == ["x", "y", "z"]
        # The batched engine never resolves per-pair paths.
        batched = assign_demand(topo, demand)
        assert batched.paths == {}
        assert batched.link_loads == result.link_loads

    def test_batched_matches_per_pair_on_loads(self):
        topo = backbone()
        demand = DemandMatrix(endpoints=["x", "y", "z"])
        demand.set_demand("x", "y", 2.0)
        demand.set_demand("x", "z", 3.0)
        demand.set_demand("y", "z", 5.0)
        reference = per_pair_assign(topo, demand)
        reference_loads = {link.key: link.load for link in topo.links()}
        batched = assign_demand(topo, demand)
        assert {link.key: link.load for link in topo.links()} == reference_loads
        assert batched.routed_volume == reference.routed_volume
        assert batched.link_loads == reference.link_loads


class TestCustomerToCore:
    def build(self) -> Topology:
        topo = Topology()
        topo.add_node("core", role=NodeRole.CORE, location=(0, 0))
        topo.add_node("agg", role=NodeRole.ACCESS, location=(1, 0))
        topo.add_node("c1", role=NodeRole.CUSTOMER, location=(2, 0), demand=3.0)
        topo.add_node("c2", role=NodeRole.CUSTOMER, location=(2, 1), demand=5.0)
        topo.add_link("core", "agg")
        topo.add_link("agg", "c1")
        topo.add_link("agg", "c2")
        return topo

    def test_all_demand_routed(self):
        topo = self.build()
        result = route_customer_demand_to_core(topo)
        assert result.routed_volume == pytest.approx(8.0)
        assert topo.link("core", "agg").load == pytest.approx(8.0)

    def test_no_core_reports_unrouted(self):
        topo = self.build()
        topo.remove_node("core")
        result = route_customer_demand_to_core(topo)
        assert result.routed_volume == 0.0
        assert result.unrouted_volume == pytest.approx(8.0)

    def test_disconnected_customer_reported(self):
        topo = self.build()
        topo.remove_link("agg", "c2")
        result = route_customer_demand_to_core(topo)
        assert result.routed_volume == pytest.approx(3.0)
        assert result.unrouted_volume == pytest.approx(5.0)


class TestSearchCounts:
    def test_customer_to_core_uses_one_multi_source_search(self):
        from repro.topology.compiled import KERNEL_COUNTERS

        topo = Topology()
        topo.add_node("core0", role=NodeRole.CORE, location=(0, 0))
        topo.add_node("core1", role=NodeRole.CORE, location=(9, 0))
        previous = "core0"
        for i in range(6):
            name = f"c{i}"
            topo.add_node(name, role=NodeRole.CUSTOMER, location=(i + 1, 0), demand=1.0)
            topo.add_link(previous, name)
            previous = name
        topo.add_link(previous, "core1")
        topo.compiled()  # compile outside the measured window
        KERNEL_COUNTERS.reset()
        result = route_customer_demand_to_core(topo)
        assert result.routed_volume == pytest.approx(6.0)
        assert KERNEL_COUNTERS.multi_source == 1
        assert KERNEL_COUNTERS.single_source == 0

    def test_assign_demand_one_search_per_source(self):
        from repro.geography.demand import DemandMatrix
        from repro.topology.compiled import KERNEL_COUNTERS

        topo = backbone()
        demand = DemandMatrix(endpoints=["x", "y", "z"])
        demand.set_demand("x", "y", 1.0)
        demand.set_demand("x", "z", 2.0)
        demand.set_demand("y", "z", 3.0)
        topo.compiled()
        KERNEL_COUNTERS.reset()
        per_pair_assign(topo, demand)
        # Two distinct sources (x, y) — the x search is reused for both x pairs.
        assert KERNEL_COUNTERS.single_source == 2

    def test_batched_assignment_counters(self):
        from repro.geography.demand import DemandMatrix
        from repro.topology.compiled import KERNEL_COUNTERS

        topo = backbone()
        demand = DemandMatrix(endpoints=["x", "y", "z"])
        demand.set_demand("x", "y", 1.0)
        demand.set_demand("x", "z", 2.0)
        demand.set_demand("y", "z", 3.0)
        topo.compiled()
        KERNEL_COUNTERS.reset()
        assign_demand(topo, demand)
        assert KERNEL_COUNTERS.traffic_batched_sources == 2
        assert KERNEL_COUNTERS.single_source == 2
        assert KERNEL_COUNTERS.traffic_assigned_pairs == 3
        assert KERNEL_COUNTERS.traffic_ecmp_splits == 0
