"""Tests for repro.optimization.mst."""

import random

import pytest

from repro.geography.points import euclidean, random_points
from repro.optimization.mst import (
    UnionFind,
    euclidean_mst_length,
    kruskal_edges,
    minimum_spanning_tree,
    prim_mst_points,
)
from repro.topology.graph import Topology


class TestUnionFind:
    def test_union_and_find(self):
        uf = UnionFind(["a", "b", "c"])
        assert uf.union("a", "b")
        assert uf.connected("a", "b")
        assert not uf.connected("a", "c")

    def test_union_same_set_returns_false(self):
        uf = UnionFind(["a", "b"])
        uf.union("a", "b")
        assert not uf.union("b", "a")

    def test_num_sets(self):
        uf = UnionFind(range(5))
        uf.union(0, 1)
        uf.union(2, 3)
        assert uf.num_sets() == 3

    def test_find_unknown_raises(self):
        with pytest.raises(KeyError):
            UnionFind().find("ghost")

    def test_add_idempotent(self):
        uf = UnionFind()
        uf.add("x")
        uf.add("x")
        assert uf.num_sets() == 1


class TestKruskal:
    def test_spanning_tree_edge_count(self):
        nodes = list(range(4))
        edges = [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (0, 3, 10.0), (0, 2, 10.0)]
        chosen = kruskal_edges(nodes, edges)
        assert len(chosen) == 3
        assert sum(w for _, _, w in chosen) == pytest.approx(6.0)

    def test_forest_on_disconnected_input(self):
        nodes = list(range(4))
        edges = [(0, 1, 1.0), (2, 3, 1.0)]
        chosen = kruskal_edges(nodes, edges)
        assert len(chosen) == 2


class TestPrimPoints:
    def test_tree_edge_count(self):
        points = random_points(30, random.Random(1))
        edges = prim_mst_points(points)
        assert len(edges) == 29

    def test_empty_and_single(self):
        assert prim_mst_points([]) == []
        assert prim_mst_points([(0.0, 0.0)]) == []

    def test_matches_kruskal_total_length(self):
        points = random_points(25, random.Random(2))
        prim_total = sum(euclidean(points[u], points[v]) for u, v in prim_mst_points(points))
        edges = [
            (i, j, euclidean(points[i], points[j]))
            for i in range(len(points))
            for j in range(i + 1, len(points))
        ]
        kruskal_total = sum(w for _, _, w in kruskal_edges(list(range(len(points))), edges))
        assert prim_total == pytest.approx(kruskal_total, rel=1e-9)

    def test_square_mst_length(self):
        square = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
        assert euclidean_mst_length(square) == pytest.approx(3.0)


class TestMinimumSpanningTreeOfTopology:
    def test_removes_heaviest_cycle_edge(self):
        topo = Topology()
        topo.add_node("a", location=(0, 0))
        topo.add_node("b", location=(1, 0))
        topo.add_node("c", location=(0, 1))
        topo.add_link("a", "b")       # length 1
        topo.add_link("a", "c")       # length 1
        topo.add_link("b", "c")       # length sqrt(2), should be dropped
        mst = minimum_spanning_tree(topo)
        assert mst.is_tree()
        assert not mst.has_link("b", "c")

    def test_custom_weight_function(self):
        topo = Topology()
        for n in ("a", "b", "c"):
            topo.add_node(n)
        topo.add_link("a", "b", install_cost=10.0)
        topo.add_link("b", "c", install_cost=1.0)
        topo.add_link("a", "c", install_cost=1.0)
        mst = minimum_spanning_tree(topo, weight=lambda link: link.install_cost)
        assert not mst.has_link("a", "b")

    def test_preserves_all_nodes(self, triangle_topology):
        mst = minimum_spanning_tree(triangle_topology)
        assert mst.num_nodes == triangle_topology.num_nodes
