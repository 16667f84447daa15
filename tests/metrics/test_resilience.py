"""Tests for repro.metrics.resilience."""

import pytest

from repro.core.fkp import generate_fkp_tree
from repro.generators import ErdosRenyiGenerator
from repro.metrics.resilience import removal_trace, robustness_summary
from repro.topology.graph import Topology
from repro.topology.node import NodeRole


class TestRemovalTrace:
    def test_invalid_arguments(self, star_topology):
        with pytest.raises(ValueError):
            removal_trace(star_topology, strategy="alphabetical")
        with pytest.raises(ValueError):
            removal_trace(star_topology, steps=0)
        with pytest.raises(ValueError):
            removal_trace(star_topology, max_fraction=0.0)

    def test_trace_starts_fully_connected(self, star_topology):
        trace = removal_trace(star_topology, strategy="random", steps=3)
        assert trace.largest_component_fraction[0] == pytest.approx(1.0)

    def test_largest_component_never_increases_much(self, path_topology):
        trace = removal_trace(path_topology, strategy="targeted", steps=3, max_fraction=0.5)
        values = trace.largest_component_fraction
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    def test_does_not_mutate_input(self, star_topology):
        before = star_topology.num_nodes
        removal_trace(star_topology, strategy="targeted", steps=2)
        assert star_topology.num_nodes == before

    def test_targeted_removal_of_star_hub_shatters_graph(self, star_topology):
        trace = removal_trace(star_topology, strategy="targeted", steps=1, max_fraction=0.2)
        assert trace.largest_component_fraction[-1] <= 0.2

    def test_protect_roles(self, star_topology):
        trace = removal_trace(
            star_topology,
            strategy="targeted",
            steps=1,
            max_fraction=0.2,
            protect_roles=[NodeRole.CORE],
        )
        # The hub is protected, so the graph stays mostly intact.
        assert trace.largest_component_fraction[-1] > 0.5

    def test_demand_loss_tracked(self):
        topo = Topology()
        topo.add_node("core", role=NodeRole.CORE)
        topo.add_node("mid", role=NodeRole.ACCESS)
        topo.add_node("cust", role=NodeRole.CUSTOMER, demand=10.0)
        topo.add_link("core", "mid")
        topo.add_link("mid", "cust")
        trace = removal_trace(
            topo,
            strategy="targeted",
            steps=1,
            max_fraction=0.4,
            protect_roles=[NodeRole.CORE, NodeRole.CUSTOMER],
        )
        assert trace.disconnected_demand_fraction[-1] == pytest.approx(1.0)

    def test_area_under_curve_bounds(self, star_topology):
        trace = removal_trace(star_topology, strategy="random", steps=3)
        assert 0.0 <= trace.area_under_curve() <= 1.0


class TestRobustnessSummary:
    def test_keys(self, star_topology):
        summary = robustness_summary(star_topology)
        assert set(summary) == {"random_auc", "targeted_auc", "fragility_gap"}

    def test_hot_tree_has_positive_fragility_gap(self):
        tree = generate_fkp_tree(300, alpha=4.0, seed=1)
        summary = robustness_summary(tree, steps=5, max_fraction=0.2)
        assert summary["fragility_gap"] > 0.0

    def test_random_graph_less_fragile_than_hot_tree(self):
        tree = generate_fkp_tree(300, alpha=4.0, seed=2)
        mesh = ErdosRenyiGenerator(target_mean_degree=6.0).generate(300, seed=2)
        tree_gap = robustness_summary(tree, steps=5, max_fraction=0.2)["fragility_gap"]
        mesh_gap = robustness_summary(mesh, steps=5, max_fraction=0.2)["fragility_gap"]
        assert tree_gap > mesh_gap
