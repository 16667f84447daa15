"""Tests for repro.routing.engine — the vectorized traffic engine."""

import random

import pytest

from repro.economics.cables import default_catalog
from repro.economics.provisioning import provision_topology
from repro.geography.demand import DemandMatrix
from repro.routing.engine import compile_demand, route_demand
from repro.routing.utilization import utilization_report
from repro.topology.compiled import KERNEL_COUNTERS
from repro.topology.graph import Topology

from oracles import per_pair_assign


def line_topology() -> Topology:
    topo = Topology()
    for name, loc in [("x", (0, 0)), ("y", (1, 0)), ("z", (2, 0))]:
        topo.add_node(name, location=loc)
    topo.add_link("x", "y")
    topo.add_link("y", "z")
    return topo


def grid_topology(size: int = 4) -> Topology:
    """A size x size grid: abundant equal-hop-count shortest paths."""
    topo = Topology()
    for x in range(size):
        for y in range(size):
            topo.add_node((x, y))
    for x in range(size):
        for y in range(size):
            if x < size - 1:
                topo.add_link((x, y), (x + 1, y))
            if y < size - 1:
                topo.add_link((x, y), (x, y + 1))
    return topo


class TestCompileDemand:
    def test_pairs_and_volumes(self):
        topo = line_topology()
        demand = DemandMatrix(endpoints=["x", "y", "z"])
        demand.set_demand("x", "z", 7.0)
        demand.set_demand("x", "y", 3.0)
        compiled = compile_demand(topo, demand)
        assert compiled.num_pairs == 2
        assert compiled.total_volume() == pytest.approx(10.0)
        assert compiled.unmatched == []

    def test_unmatched_endpoints_recorded(self):
        topo = line_topology()
        demand = DemandMatrix(endpoints=["x", "ghost"])
        demand.set_demand("x", "ghost", 4.0)
        compiled = compile_demand(topo, demand)
        assert compiled.num_pairs == 0
        assert compiled.unmatched == [("ghost", "x", 4.0)]

    def test_endpoint_map_resolution(self):
        topo = line_topology()
        demand = DemandMatrix(endpoints=["alpha", "omega"])
        demand.set_demand("alpha", "omega", 1.0)
        compiled = compile_demand(topo, demand, {"alpha": "x", "omega": "z"})
        assert compiled.num_pairs == 1

    def test_hub_orientation_minimizes_sources(self):
        """A hub-to-all matrix must compile to one search source: the hub."""
        topo = Topology()
        names = [f"n{i}" for i in range(8)]
        for i, name in enumerate(names):
            topo.add_node(name, location=(i, 0))
        for name in names[1:]:
            topo.add_link(names[0], name)
        demand = DemandMatrix(endpoints=names)
        # "n0" is not the string-minimum of every pair, but it is the hub.
        for name in names[1:]:
            demand.set_demand(name, names[0], 2.0)
        compiled = compile_demand(topo, demand)
        hub = compiled.graph.index_of["n0"]
        assert set(compiled.sources) == {hub}

    def test_demand_matrix_compile_delegates(self):
        topo = line_topology()
        demand = DemandMatrix(endpoints=["x", "z"])
        demand.set_demand("x", "z", 5.0)
        compiled = demand.compile(topo)
        assert compiled.num_pairs == 1
        assert compiled.graph is topo.compiled()


class TestRouteDemandSingle:
    def test_matches_per_pair_loads(self):
        topo = line_topology()
        demand = DemandMatrix(endpoints=["x", "y", "z"])
        demand.set_demand("x", "z", 7.0)
        demand.set_demand("y", "z", 2.0)
        reference = per_pair_assign(topo, demand)
        flow = route_demand(compile_demand(topo, demand))
        assert flow.link_loads() == reference.link_loads
        assert flow.routed_volume == reference.routed_volume
        assert flow.routed_pairs == 2

    def test_disconnected_pairs_unrouted(self):
        topo = line_topology()
        topo.add_node("island", location=(9, 9))
        demand = DemandMatrix(endpoints=["x", "island"])
        demand.set_demand("x", "island", 5.0)
        flow = route_demand(compile_demand(topo, demand))
        assert flow.routed_volume == 0.0
        assert flow.unrouted_volume == pytest.approx(5.0)
        assert flow.max_load() == 0.0

    def test_flush_reset_and_accumulate(self):
        topo = line_topology()
        for link in topo.links():
            link.load = 100.0
        demand = DemandMatrix(endpoints=["x", "z"])
        demand.set_demand("x", "z", 3.0)
        flow = route_demand(compile_demand(topo, demand))
        # A flush replaces whatever the links carried; flushing again is a no-op.
        flow.flush()
        assert topo.link("x", "y").load == pytest.approx(3.0)
        flow.flush()
        assert [link.load for link in topo.links()] == flow.loads_list()

    def test_unknown_mode_rejected(self):
        topo = line_topology()
        demand = DemandMatrix(endpoints=["x", "z"])
        demand.set_demand("x", "z", 1.0)
        with pytest.raises(ValueError):
            route_demand(compile_demand(topo, demand), mode="multicast")


class TestRouteDemandECMP:
    def test_split_is_deterministic_and_conserving(self):
        topo = grid_topology(4)
        demand = DemandMatrix(endpoints=["s", "t"])
        demand.set_demand("s", "t", 12.0)
        compiled = compile_demand(topo, demand, {"s": (0, 0), "t": (3, 3)})
        KERNEL_COUNTERS.reset()
        flow = route_demand(compiled, weight="hops", mode="ecmp")
        assert KERNEL_COUNTERS.traffic_ecmp_splits > 0
        again = route_demand(compiled, weight="hops", mode="ecmp")
        assert list(flow.edge_loads) == list(again.edge_loads)
        graph = compiled.graph
        source = graph.index_of[(0, 0)]
        target = graph.index_of[(3, 3)]
        out_of_source = sum(
            flow.edge_loads[e]
            for e in range(graph.num_edges)
            if source in (graph.edge_u[e], graph.edge_v[e])
        )
        into_target = sum(
            flow.edge_loads[e]
            for e in range(graph.num_edges)
            if target in (graph.edge_u[e], graph.edge_v[e])
        )
        assert out_of_source == pytest.approx(12.0, rel=1e-12)
        assert into_target == pytest.approx(12.0, rel=1e-12)
        # Every shortest (0,0)->(3,3) path has 6 hops: volume-hops conserved.
        assert sum(flow.edge_loads) == pytest.approx(12.0 * 6, rel=1e-12)

    def test_two_tied_paths_split_evenly(self):
        topo = Topology()
        for name in "sabt":
            topo.add_node(name)
        topo.add_link("s", "a")
        topo.add_link("a", "t")
        topo.add_link("s", "b")
        topo.add_link("b", "t")
        demand = DemandMatrix(endpoints=["s", "t"])
        demand.set_demand("s", "t", 8.0)
        flow = route_demand(compile_demand(topo, demand), weight="hops", mode="ecmp")
        loads = flow.link_loads()
        for key in loads:
            assert loads[key] == pytest.approx(4.0)

    def test_single_path_carries_everything(self):
        topo = line_topology()
        demand = DemandMatrix(endpoints=["x", "z"])
        demand.set_demand("x", "z", 5.0)
        flow = route_demand(compile_demand(topo, demand), weight="hops", mode="ecmp")
        assert sorted(flow.edge_loads) == [5.0, 5.0]


class TestArrayBoundary:
    def test_provision_from_edge_column_matches_flush_then_provision(self):
        rng = random.Random(7)
        topo = Topology()
        n = 30
        for i in range(n):
            topo.add_node(i, location=(rng.random(), rng.random()))
        for i in range(1, n):
            topo.add_link(i, rng.randrange(i))
        demand = DemandMatrix(endpoints=[str(i) for i in range(n)])
        for _ in range(40):
            a, b = rng.sample(range(n), 2)
            demand.set_demand(str(a), str(b), float(rng.randint(1, 9)))
        endpoint_map = {str(i): i for i in range(n)}
        flow = route_demand(compile_demand(topo, demand, endpoint_map))

        column_report = provision_topology(topo, default_catalog(), flow=flow)
        column_state = [
            (link.load, link.capacity, link.cable, link.install_cost)
            for link in topo.links()
        ]
        flow.flush()
        flushed_report = provision_topology(topo, default_catalog())
        flushed_state = [
            (link.load, link.capacity, link.cable, link.install_cost)
            for link in topo.links()
        ]
        assert column_state == flushed_state
        assert column_report.total_install_cost == flushed_report.total_install_cost
        assert column_report.cable_counts == flushed_report.cable_counts

    def test_utilization_report_from_loads_column(self):
        topo = line_topology()
        demand = DemandMatrix(endpoints=["x", "z"])
        demand.set_demand("x", "z", 6.0)
        flow = route_demand(compile_demand(topo, demand))
        provision_topology(topo, default_catalog(), flow=flow)
        from_column = utilization_report(topo, flow=flow)
        from_links = utilization_report(topo)
        assert from_column == from_links
