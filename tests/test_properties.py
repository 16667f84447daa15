"""Property-based tests (hypothesis) on the core data structures and invariants."""

import math
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.buyatbulk import (
    BuyAtBulkInstance,
    Customer,
    solve_direct_star,
    solve_greedy_aggregation,
    trivial_lower_bound,
)
from repro.core.fkp import generate_fkp_tree
from repro.core.meyerson import solve_meyerson
from repro.economics.cables import CableCatalog, CableType, default_catalog
from repro.geography.demand import gravity_demand
from repro.geography.points import euclidean
from repro.geography.population import City
from repro.metrics.degree import degree_ccdf
from repro.metrics.fits import fit_exponential, fit_power_law
from repro.optimization.mst import euclidean_mst_length, prim_mst_points
from repro.topology.graph import Topology


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
coordinates = st.tuples(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)

point_lists = st.lists(coordinates, min_size=2, max_size=25)

degree_sequences = st.lists(st.integers(min_value=1, max_value=60), min_size=5, max_size=200)


def customers_strategy(min_size=2, max_size=15):
    return st.lists(
        st.tuples(coordinates, st.floats(min_value=0.1, max_value=50.0, allow_nan=False)),
        min_size=min_size,
        max_size=max_size,
    )


# ----------------------------------------------------------------------
# Geometry / MST invariants
# ----------------------------------------------------------------------
class TestGeometryProperties:
    @given(point_lists)
    @settings(max_examples=50, deadline=None)
    def test_mst_has_n_minus_1_edges(self, points):
        edges = prim_mst_points(points)
        assert len(edges) == len(points) - 1

    @given(point_lists)
    @settings(max_examples=50, deadline=None)
    def test_mst_length_bounded_by_any_spanning_path(self, points):
        mst_length = euclidean_mst_length(points)
        path_length = sum(
            euclidean(points[i], points[i + 1]) for i in range(len(points) - 1)
        )
        assert mst_length <= path_length + 1e-9

    @given(coordinates, coordinates)
    @settings(max_examples=100, deadline=None)
    def test_euclidean_symmetry_and_nonnegativity(self, a, b):
        assert euclidean(a, b) == euclidean(b, a)
        assert euclidean(a, b) >= 0.0
        assert euclidean(a, a) == 0.0

    @given(coordinates, coordinates, coordinates)
    @settings(max_examples=100, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        assert euclidean(a, c) <= euclidean(a, b) + euclidean(b, c) + 1e-9


# ----------------------------------------------------------------------
# Cable catalog invariants
# ----------------------------------------------------------------------
class TestCatalogProperties:
    @given(st.floats(min_value=0.0, max_value=20000.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_cost_envelope_nonnegative_and_zero_at_zero(self, flow):
        catalog = default_catalog()
        cost = catalog.cost_per_unit_length(flow)
        assert cost >= 0.0
        if flow == 0.0:
            assert cost == 0.0

    @given(
        st.floats(min_value=0.1, max_value=5000.0, allow_nan=False),
        st.floats(min_value=0.1, max_value=5000.0, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_cost_envelope_subadditive(self, a, b):
        # Universal mixed-cable subadditivity of the envelope is FALSE at
        # exact capacity boundaries (e.g. a=1, b=2488: one extra unit on a
        # full OC-48 forces a second install or a jump to OC-192, costing
        # more than pricing the flows separately).  The property the cost
        # model actually guarantees, and the one that rewards aggregation,
        # is subadditivity *per cable type* — ceil((a+b)/u) <= ceil(a/u) +
        # ceil(b/u) — which also bounds the envelope of the combined flow
        # by any single cable's split cost.
        catalog = default_catalog()
        combined = catalog.cost_per_unit_length(a + b)
        for cable in catalog:
            split = cable.cost_for_flow(a) + cable.cost_for_flow(b)
            assert cable.cost_for_flow(a + b) <= split + 1e-9
            assert combined <= split + 1e-9

    @given(st.floats(min_value=0.1, max_value=20000.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_provision_covers_flow(self, flow):
        _, capacity, _, _ = default_catalog().installation(flow, 1.0)
        assert capacity >= flow - 1e-9

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1.0, max_value=10000.0),
                st.floats(min_value=0.1, max_value=100.0),
                st.floats(min_value=0.001, max_value=10.0),
            ),
            min_size=1,
            max_size=6,
            unique_by=lambda triple: triple[2],
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_unvalidated_catalog_envelope_still_monotone_flows(self, triples):
        # Sorting each drawn column makes the catalog pass validation:
        # capacities and install costs ascend, distinct usage costs descend.
        capacities, installs, usages = (sorted(column) for column in zip(*triples))
        cables = [
            CableType(name=f"c{i}", capacity=cap, install_cost=inst, usage_cost=use)
            for i, (cap, inst, use) in enumerate(zip(capacities, installs, reversed(usages)))
        ]
        catalog = CableCatalog(cables)
        small = catalog.cost_per_unit_length(1.0)
        large = catalog.cost_per_unit_length(1.0 + 5000.0)
        assert large >= small - 1e-9


# ----------------------------------------------------------------------
# FKP growth invariants
# ----------------------------------------------------------------------
class TestFKPProperties:
    @given(
        st.integers(min_value=2, max_value=80),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_always_produces_a_spanning_tree(self, n, alpha, seed):
        topo = generate_fkp_tree(n, alpha, seed=seed)
        assert topo.num_nodes == n
        assert topo.is_tree()

    @given(st.integers(min_value=5, max_value=60), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30, deadline=None)
    def test_degree_sum_is_twice_links(self, n, seed):
        topo = generate_fkp_tree(n, 4.0, seed=seed)
        assert sum(topo.degree_sequence()) == 2 * topo.num_links


# ----------------------------------------------------------------------
# Buy-at-bulk invariants
# ----------------------------------------------------------------------
class TestBuyAtBulkProperties:
    @given(customers_strategy(), st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_meyerson_always_feasible_tree(self, raw_customers, seed):
        customers = [
            Customer(f"c{i}", location, demand)
            for i, (location, demand) in enumerate(raw_customers)
        ]
        instance = BuyAtBulkInstance(customers=customers, core_locations=[(0.5, 0.5)])
        solution = solve_meyerson(instance, seed=seed)
        assert solution.is_feasible()
        assert solution.topology.is_tree()
        # Flow conservation at the core: the core receives all customer demand.
        core_in = sum(link.load for link in solution.topology.incident_links("core0"))
        assert math.isclose(core_in, instance.total_demand, rel_tol=1e-9)

    @given(customers_strategy(), st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_solutions_respect_lower_bound(self, raw_customers, seed):
        customers = [
            Customer(f"c{i}", location, demand)
            for i, (location, demand) in enumerate(raw_customers)
        ]
        instance = BuyAtBulkInstance(customers=customers, core_locations=[(0.5, 0.5)])
        bound = trivial_lower_bound(instance)
        for solution in (
            solve_meyerson(instance, seed=seed),
            solve_greedy_aggregation(instance),
            solve_direct_star(instance),
        ):
            assert solution.total_cost() >= bound * (1 - 1e-9)

    @given(customers_strategy())
    @settings(max_examples=25, deadline=None)
    def test_provisioned_capacity_covers_load(self, raw_customers):
        customers = [
            Customer(f"c{i}", location, demand)
            for i, (location, demand) in enumerate(raw_customers)
        ]
        instance = BuyAtBulkInstance(customers=customers, core_locations=[(0.5, 0.5)])
        solution = solve_greedy_aggregation(instance)
        for link in solution.topology.links():
            assert link.capacity >= link.load - 1e-9


# ----------------------------------------------------------------------
# Metric invariants
# ----------------------------------------------------------------------
class TestMetricProperties:
    @given(degree_sequences)
    @settings(max_examples=100, deadline=None)
    def test_ccdf_is_monotone_and_bounded(self, degrees):
        ccdf = degree_ccdf(degrees)
        values = [v for _, v in ccdf]
        assert values[0] == 1.0
        assert all(0.0 < v <= 1.0 for v in values)
        assert all(a >= b for a, b in zip(values, values[1:]))

    @given(degree_sequences)
    @settings(max_examples=100, deadline=None)
    def test_fits_produce_finite_or_inf_parameters(self, degrees):
        power = fit_power_law(degrees, k_min=1)
        expo = fit_exponential(degrees, k_min=1)
        assert power.exponent > 1.0
        assert expo.rate > 0.0

    @given(st.lists(coordinates, min_size=2, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_gravity_demand_nonnegative_and_normalized(self, locations):
        cities = [
            City(name=f"city{i}", location=location, population=float(i + 1) * 100.0)
            for i, location in enumerate(locations)
        ]
        matrix = gravity_demand(cities, total_volume=100.0)
        assert matrix.total() <= 100.0 + 1e-6
        assert all(volume >= 0 for _, _, volume in matrix.pairs())


# ----------------------------------------------------------------------
# Topology invariants under random edits
# ----------------------------------------------------------------------
class TestTopologyEditProperties:
    @given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=50, deadline=None)
    def test_random_graph_degree_sum(self, n, seed):
        rng = random.Random(seed)
        topo = Topology()
        for i in range(n):
            topo.add_node(i)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    topo.add_link(i, j)
        assert sum(topo.degree_sequence()) == 2 * topo.num_links
        assert topo.validate() == []

    @given(st.integers(min_value=3, max_value=25), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=50, deadline=None)
    def test_removing_node_preserves_consistency(self, n, seed):
        rng = random.Random(seed)
        topo = Topology()
        for i in range(n):
            topo.add_node(i)
        for i in range(1, n):
            topo.add_link(i, rng.randrange(i))
        victim = rng.randrange(n)
        degree = topo.degree(victim)
        links_before = topo.num_links
        topo.remove_node(victim)
        assert topo.num_links == links_before - degree
        assert topo.validate() == []
