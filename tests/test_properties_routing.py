"""Property-based tests on routing and spanning-tree invariants."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.geography.demand import DemandMatrix
from repro.geography.points import euclidean
from repro.optimization.mst import euclidean_mst_length, prim_mst_points
from repro.routing.assignment import assign_demand
from repro.routing.engine import compile_demand, route_demand
from repro.routing.utilization import utilization_report
from repro.topology.graph import Topology

from oracles import per_pair_assign


coordinates = st.tuples(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


def random_connected_topology(rng: random.Random, n: int, extra_links: int) -> Topology:
    """A random connected topology: random tree plus ``extra_links`` chords."""
    topology = Topology()
    for i in range(n):
        topology.add_node(i, location=(rng.random(), rng.random()))
    for i in range(1, n):
        topology.add_link(i, rng.randrange(i))
    added = 0
    attempts = 0
    while added < extra_links and attempts < 20 * extra_links + 20:
        attempts += 1
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and not topology.has_link(u, v):
            topology.add_link(u, v)
            added += 1
    return topology


class TestRoutingProperties:
    @given(
        st.integers(min_value=3, max_value=20),
        st.integers(min_value=0, max_value=10),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_assigned_volume_conservation(self, n, extra_links, seed):
        """Routed volume plus unrouted volume equals the offered volume."""
        rng = random.Random(seed)
        topology = random_connected_topology(rng, n, extra_links)
        endpoints = [str(i) for i in range(n)]
        demand = DemandMatrix(endpoints=endpoints)
        offered = 0.0
        for _ in range(min(10, n)):
            a, b = rng.sample(range(n), 2)
            volume = rng.uniform(0.5, 5.0)
            demand.set_demand(str(a), str(b), demand.demand(str(a), str(b)) + volume)
        offered = demand.total()
        result = assign_demand(topology, demand, endpoint_map={str(i): i for i in range(n)})
        assert abs((result.routed_volume + result.unrouted_volume) - offered) < 1e-6

    @given(
        st.integers(min_value=3, max_value=15),
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_total_link_load_at_least_offered_volume(self, n, extra_links, seed):
        """Each routed unit traverses at least one link (connected topology)."""
        rng = random.Random(seed)
        topology = random_connected_topology(rng, n, extra_links)
        endpoints = [str(i) for i in range(n)]
        demand = DemandMatrix(endpoints=endpoints)
        a, b = rng.sample(range(n), 2)
        demand.set_demand(str(a), str(b), 3.0)
        assign_demand(topology, demand, endpoint_map={str(i): i for i in range(n)})
        report = utilization_report(topology)
        assert report.total_load >= 3.0 - 1e-9


def random_demand(
    rng: random.Random, n: int, pairs: int, integral: bool
) -> DemandMatrix:
    """A random demand matrix over str(i) endpoints (volumes accumulate)."""
    demand = DemandMatrix(endpoints=[str(i) for i in range(n)])
    for _ in range(pairs):
        a, b = rng.sample(range(n), 2)
        volume = float(rng.randint(1, 12)) if integral else rng.uniform(0.25, 8.0)
        demand.set_demand(str(a), str(b), demand.demand(str(a), str(b)) + volume)
    return demand


class TestBatchedEngineProperties:
    @given(
        st.integers(min_value=3, max_value=24),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_batched_loads_bit_identical_for_integral_volumes(self, n, extra, seed):
        """Integral volumes sum exactly in any order: loads must match bitwise.

        Routing runs on Euclidean lengths, where exact shortest-path ties
        have measure zero, so both methods load the same (unique) paths; the
        engine's equivalence contract does not cover tied shortest paths
        (see the repro.routing.engine module docstring).
        """
        rng = random.Random(seed)
        topology = random_connected_topology(rng, n, extra)
        demand = random_demand(rng, n, min(12, n), integral=True)
        endpoint_map = {str(i): i for i in range(n)}
        reference = per_pair_assign(topology, demand, endpoint_map)
        reference_loads = [link.load for link in topology.links()]
        batched = assign_demand(topology, demand, endpoint_map)
        assert [link.load for link in topology.links()] == reference_loads
        assert batched.routed_volume == reference.routed_volume
        assert batched.unrouted_volume == reference.unrouted_volume
        assert batched.link_loads == reference.link_loads

    @given(
        st.integers(min_value=3, max_value=24),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_batched_matches_per_pair_for_float_volumes(self, n, extra, seed):
        """Arbitrary volumes: same loads up to float accumulation order."""
        rng = random.Random(seed)
        topology = random_connected_topology(rng, n, extra)
        demand = random_demand(rng, n, min(12, n), integral=False)
        endpoint_map = {str(i): i for i in range(n)}
        reference = per_pair_assign(topology, demand, endpoint_map)
        reference_loads = [link.load for link in topology.links()]
        batched = assign_demand(topology, demand, endpoint_map)
        for observed, expected in zip(
            (link.load for link in topology.links()), reference_loads
        ):
            assert abs(observed - expected) <= 1e-9 * max(1.0, abs(expected))
        assert abs(batched.routed_volume - reference.routed_volume) <= 1e-9 * max(
            1.0, reference.routed_volume
        )
        assert batched.unrouted_volume == reference.unrouted_volume

    @given(
        st.integers(min_value=4, max_value=20),
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_ecmp_deterministic_and_conserves_volume_per_pair(self, n, extra, seed):
        """Same seed → same split; every pair's volume is conserved."""
        rng = random.Random(seed)
        topology = random_connected_topology(rng, n, extra)
        a, b = rng.sample(range(n), 2)
        volume = rng.uniform(1.0, 9.0)
        demand = DemandMatrix(endpoints=[str(a), str(b)])
        demand.set_demand(str(a), str(b), volume)
        compiled = compile_demand(topology, demand, {str(a): a, str(b): b})
        flow = route_demand(compiled, weight="hops", mode="ecmp")
        again = route_demand(compiled, weight="hops", mode="ecmp")
        assert list(flow.edge_loads) == list(again.edge_loads)
        graph = compiled.graph
        for endpoint in (a, b):
            index = graph.index_of[endpoint]
            incident = sum(
                flow.edge_loads[e]
                for e in range(graph.num_edges)
                if index in (graph.edge_u[e], graph.edge_v[e])
            )
            assert abs(incident - volume) <= 1e-9 * max(1.0, volume)
        hops = topology.hop_distances(a)[b]
        assert abs(sum(flow.edge_loads) - volume * hops) <= 1e-9 * max(
            1.0, volume * hops
        )


class TestSteinerProperties:
    @given(st.lists(coordinates, min_size=3, max_size=15))
    @settings(max_examples=40, deadline=None)
    def test_backbone_length_equals_mst_and_bounds_tour(self, points):
        """The Euclidean-MST backbone spans the sites, and its length bounds any tour."""
        backbone = Topology()
        for index, point in enumerate(points):
            backbone.add_node(index, location=point)
        for u, v in prim_mst_points(points):
            backbone.add_link(u, v)
        mst_length = euclidean_mst_length(points)
        assert backbone.is_tree()
        assert abs(backbone.total_length() - mst_length) < 1e-9
        tour = sum(euclidean(points[i], points[i + 1]) for i in range(len(points) - 1))
        assert mst_length <= tour + 1e-9

    @given(st.lists(coordinates, min_size=2, max_size=15))
    @settings(max_examples=40, deadline=None)
    def test_mst_edges_form_acyclic_spanning_structure(self, points):
        edges = prim_mst_points(points)
        assert len(edges) == len(points) - 1
        seen = set()
        for u, v in edges:
            seen.add(u)
            seen.add(v)
        if len(points) > 1:
            assert seen == set(range(len(points)))
