"""Tests for repro.metrics.clustering."""

import pytest

from repro.metrics.clustering import (
    average_clustering,
    clustering_by_node,
    local_clustering,
    transitivity,
)
from repro.topology.graph import Topology


def complete_graph(n: int) -> Topology:
    topo = Topology()
    for i in range(n):
        topo.add_node(i)
    for i in range(n):
        for j in range(i + 1, n):
            topo.add_link(i, j)
    return topo


class TestLocalClustering:
    def test_triangle_nodes_fully_clustered(self, triangle_topology):
        assert local_clustering(triangle_topology, "a") == pytest.approx(1.0)

    def test_leaf_has_zero_clustering(self, star_topology):
        assert local_clustering(star_topology, "leaf0") == 0.0

    def test_hub_of_star_has_zero_clustering(self, star_topology):
        assert local_clustering(star_topology, "hub") == 0.0

    def test_partial_clustering(self):
        topo = Topology()
        for n in "abcd":
            topo.add_node(n)
        topo.add_link("a", "b")
        topo.add_link("a", "c")
        topo.add_link("a", "d")
        topo.add_link("b", "c")
        assert local_clustering(topo, "a") == pytest.approx(1 / 3)


class TestGlobalClustering:
    def test_complete_graph_is_one(self):
        topo = complete_graph(5)
        assert average_clustering(topo) == pytest.approx(1.0)
        assert transitivity(topo) == pytest.approx(1.0)

    def test_tree_is_zero(self, path_topology, star_topology):
        assert average_clustering(path_topology) == 0.0
        assert transitivity(star_topology) == 0.0

    def test_empty_topology(self):
        assert average_clustering(Topology()) == 0.0
        assert transitivity(Topology()) == 0.0

    def test_clustering_by_node_covers_all(self, triangle_topology):
        coefficients = clustering_by_node(triangle_topology)
        assert set(coefficients) == {"a", "b", "c"}

    def test_transitivity_between_zero_and_one(self):
        topo = complete_graph(4)
        topo.add_node("pendant")
        topo.add_link(0, "pendant")
        value = transitivity(topo)
        assert 0.0 < value < 1.0
