"""Tests for repro.metrics.distortion."""

import math

import pytest

from repro.generators import ErdosRenyiGenerator
from repro.metrics.distortion import cycle_edge_fraction, tree_distortion
from repro.topology.graph import Topology


def cycle_graph(n: int) -> Topology:
    topo = Topology()
    for i in range(n):
        topo.add_node(i)
    for i in range(n):
        topo.add_link(i, (i + 1) % n)
    return topo


class TestTreeDistortion:
    def test_tree_has_distortion_one(self, path_topology):
        assert tree_distortion(path_topology, sample_pairs=50) == pytest.approx(1.0)

    def test_cycle_has_distortion_above_one(self):
        distortion = tree_distortion(cycle_graph(20), sample_pairs=100, seed=1)
        assert distortion > 1.2

    def test_mesh_distortion_above_tree(self):
        mesh = ErdosRenyiGenerator(target_mean_degree=6.0).generate(120, seed=1)
        assert tree_distortion(mesh, sample_pairs=80, seed=2) > 1.05

    def test_too_small_topology_nan(self):
        topo = Topology()
        topo.add_node("only")
        assert math.isnan(tree_distortion(topo))

    def test_custom_spanning_tree(self, triangle_topology):
        from repro.optimization.mst import minimum_spanning_tree

        tree = minimum_spanning_tree(triangle_topology)
        value = tree_distortion(triangle_topology, sample_pairs=30, spanning_tree=tree)
        assert value >= 1.0


class TestIsTreeLike:
    """Tree-like means a distortion within 10% of a tree's (exactly 1)."""

    def test_tree_is_tree_like(self, star_topology):
        assert tree_distortion(star_topology, sample_pairs=100) <= 1.1

    def test_cycle_is_not_tree_like(self):
        assert tree_distortion(cycle_graph(30), sample_pairs=100) > 1.1


class TestCycleEdgeFraction:
    def test_tree_has_zero(self, path_topology):
        assert cycle_edge_fraction(path_topology) == 0.0

    def test_cycle_has_positive(self):
        assert cycle_edge_fraction(cycle_graph(10)) == pytest.approx(0.1)

    def test_empty_topology(self):
        assert cycle_edge_fraction(Topology()) == 0.0

    def test_forest(self):
        topo = Topology()
        for i in range(4):
            topo.add_node(i)
        topo.add_link(0, 1)
        topo.add_link(2, 3)
        assert cycle_edge_fraction(topo) == 0.0
