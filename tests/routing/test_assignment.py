"""Tests for routing a demand matrix onto link loads: ``route_demand(...).flush()``."""

import pytest

from repro.geography.demand import DemandMatrix
from repro.routing.engine import FlowResult, route_demand
from repro.topology.graph import Topology

from oracles import per_pair_assign


def backbone() -> Topology:
    topo = Topology()
    for name, loc in [("x", (0, 0)), ("y", (1, 0)), ("z", (2, 0))]:
        topo.add_node(name, location=loc)
    topo.add_link("x", "y")
    topo.add_link("y", "z")
    return topo


def assign(topo: Topology, demand: DemandMatrix, **kwargs) -> FlowResult:
    """Route ``demand`` over ``topo`` and write the loads onto its links."""
    flow = route_demand(topo, demand, **kwargs)
    flow.flush()
    return flow


class TestAssignDemand:
    def test_loads_accumulate_along_path(self):
        topo = backbone()
        demand = DemandMatrix(endpoints=["x", "z"])
        demand.set_demand("x", "z", 7.0)
        result = assign(topo, demand)
        assert result.routed_volume == pytest.approx(7.0)
        assert topo.link("x", "y").load == pytest.approx(7.0)
        assert topo.link("y", "z").load == pytest.approx(7.0)

    def test_multiple_pairs_sum(self):
        topo = backbone()
        demand = DemandMatrix(endpoints=["x", "y", "z"])
        demand.set_demand("x", "y", 2.0)
        demand.set_demand("x", "z", 3.0)
        assign(topo, demand)
        assert topo.link("x", "y").load == pytest.approx(5.0)
        assert topo.link("y", "z").load == pytest.approx(3.0)

    def test_unrouted_missing_node(self):
        topo = backbone()
        demand = DemandMatrix(endpoints=["x", "ghost"])
        demand.set_demand("x", "ghost", 4.0)
        result = assign(topo, demand)
        assert result.unrouted_volume == pytest.approx(4.0)
        assert result.routed_volume == 0.0

    def test_endpoint_map(self):
        topo = backbone()
        demand = DemandMatrix(endpoints=["alpha", "omega"])
        demand.set_demand("alpha", "omega", 1.0)
        result = assign(topo, demand, endpoint_map={"alpha": "x", "omega": "z"})
        assert result.routed_volume == pytest.approx(1.0)

    def test_reset_loads(self):
        topo = backbone()
        topo.link("x", "y").load = 99.0
        demand = DemandMatrix(endpoints=["x", "z"])
        demand.set_demand("x", "z", 1.0)
        assign(topo, demand)
        assert topo.link("x", "y").load == pytest.approx(1.0)

    def test_paths_recorded_by_per_pair_reference(self):
        topo = backbone()
        demand = DemandMatrix(endpoints=["x", "z"])
        demand.set_demand("x", "z", 1.0)
        result = per_pair_assign(topo, demand)
        assert result.paths[("x", "z")] == ["x", "y", "z"]
        # The batched engine loads the same links without resolving paths.
        batched = assign(topo, demand)
        assert batched.link_loads() == result.link_loads

    def test_batched_matches_per_pair_on_loads(self):
        topo = backbone()
        demand = DemandMatrix(endpoints=["x", "y", "z"])
        demand.set_demand("x", "y", 2.0)
        demand.set_demand("x", "z", 3.0)
        demand.set_demand("y", "z", 5.0)
        reference = per_pair_assign(topo, demand)
        reference_loads = {link.key: link.load for link in topo.links()}
        batched = assign(topo, demand)
        assert {link.key: link.load for link in topo.links()} == reference_loads
        assert batched.routed_volume == reference.routed_volume
        assert batched.link_loads() == reference.link_loads


class TestSearchCounts:
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
        assign(topo, demand)
        assert KERNEL_COUNTERS.traffic_batched_sources == 2
        assert KERNEL_COUNTERS.single_source == 2
        assert KERNEL_COUNTERS.traffic_assigned_pairs == 3
        assert KERNEL_COUNTERS.traffic_ecmp_splits == 0
