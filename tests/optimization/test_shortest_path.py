"""Tests for repro.optimization.shortest_path and the Dijkstra kernel it runs."""

from math import inf, nan

import pytest

from repro.optimization.shortest_path import all_pairs_shortest_lengths
from repro.topology import compiled
from repro.topology.compiled import dijkstra_indices
from repro.topology.graph import Topology


def weighted_square() -> Topology:
    """Square a-b-c-d with a long diagonal a-c."""
    topo = Topology()
    for n in "abcd":
        topo.add_node(n)
    topo.add_link("a", "b", length=1.0)
    topo.add_link("b", "c", length=1.0)
    topo.add_link("c", "d", length=1.0)
    topo.add_link("d", "a", length=1.0)
    topo.add_link("a", "c", length=5.0)
    return topo


def search(topo: Topology, source, weight=None):
    """``dijkstra_indices`` from ``source``: ``(graph, dist, pred)``."""
    graph = topo.compiled()
    dist, pred, _ = dijkstra_indices(graph, graph.index_of[source], graph.edge_weights(weight))
    return graph, dist, pred


class TestDijkstra:
    def test_distances(self):
        graph, dist, _ = search(weighted_square(), "a")
        assert dist[graph.index_of["c"]] == pytest.approx(2.0)
        assert dist[graph.index_of["b"]] == pytest.approx(1.0)

    def test_prefers_cheaper_multi_hop_path(self):
        graph, _, pred = search(weighted_square(), "a")
        via = graph.ids[pred[graph.index_of["c"]]]
        assert via in ("b", "d")
        assert graph.ids[pred[graph.index_of[via]]] == "a"

    def test_unreachable_returns_none(self):
        topo = Topology()
        topo.add_node("x")
        topo.add_node("y")
        graph, dist, pred = search(topo, "x")
        assert dist[graph.index_of["y"]] == inf
        assert pred[graph.index_of["y"]] == -1

    def test_zero_length_links_count_as_one_hop(self, path_topology):
        graph, dist, _ = search(path_topology, 0)
        assert dist[graph.index_of[5]] == pytest.approx(5.0)

    def test_negative_weight_rejected(self):
        # ``CompiledGraph.edge_weights`` rejects the column before any search.
        topo = Topology()
        topo.add_node("a")
        topo.add_node("b")
        topo.add_link("a", "b")
        with pytest.raises(ValueError):
            search(topo, "a", weight=lambda link: -1.0)

    @pytest.mark.parametrize("numpy_column", [True, False], ids=["numpy", "python"])
    @pytest.mark.parametrize("bad", [nan, inf], ids=["nan", "inf"])
    def test_non_finite_weight_rejected(self, monkeypatch, numpy_column, bad):
        # Both column builders of ``edge_weights`` reject it and name the link.
        if numpy_column and not compiled._HAVE_NUMPY:
            pytest.skip("numpy not available")
        monkeypatch.setattr(compiled, "_HAVE_NUMPY", numpy_column)

        def weight(link):
            return bad if link.key == ("a", "c") else 1.0

        with pytest.raises(ValueError, match=r"finite.*\('a', 'c'\)"):
            search(weighted_square(), "a", weight=weight)

    def test_custom_weight(self):
        # With hop-count weights the long diagonal a-c becomes the best route.
        graph, dist, pred = search(weighted_square(), "a", weight=lambda link: 1.0)
        assert dist[graph.index_of["c"]] == pytest.approx(1.0)
        assert dist[graph.index_of["b"]] == pytest.approx(1.0)
        assert graph.ids[pred[graph.index_of["c"]]] == "a"


class TestPathUtilities:
    def test_reconstruct_path(self):
        graph, _, pred = search(weighted_square(), "a")
        path = [graph.index_of["c"]]
        while pred[path[-1]] != -1:
            path.append(pred[path[-1]])
        path = [graph.ids[index] for index in reversed(path)]
        assert path[0] == "a" and path[-1] == "c"
        assert len(path) == 3

    def test_all_pairs_subset_sources(self):
        topo = weighted_square()
        lengths = all_pairs_shortest_lengths(topo, sources=["a"])
        assert set(lengths) == {"a"}
        assert lengths["a"]["d"] == pytest.approx(1.0)

    def test_eccentricity(self, path_topology):
        lengths = all_pairs_shortest_lengths(path_topology, sources=[0, 2])
        assert max(lengths[0].values()) == pytest.approx(5.0)
        assert max(lengths[2].values()) == pytest.approx(3.0)
