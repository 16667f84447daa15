"""Tests for the compiled Dijkstra kernel and the weight columns it reads."""

from math import inf, nan

import pytest

from repro.geography.demand import DemandMatrix
from repro.routing.engine import route_demand
from repro.topology import compiled
from repro.topology.compiled import dijkstra_indices, have_numpy_backend
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
    weights = graph.edge_weight_column(weight)
    dist, pred, _ = dijkstra_indices(graph, graph.index_of[source], weights)
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

    @pytest.mark.parametrize("numpy_column", [True, False], ids=["numpy", "python"])
    @pytest.mark.parametrize("weight", [None, "length"], ids=["default", "length"])
    @pytest.mark.parametrize("bad", [nan, inf, -1.0], ids=["nan", "inf", "negative"])
    def test_bad_length_rejected(self, monkeypatch, numpy_column, weight, bad):
        # A length written after construction is checked by the default
        # length weight on both column builders, and the error names the link.
        if numpy_column and not compiled._HAVE_SCIPY:
            pytest.skip("numpy/scipy not available")
        monkeypatch.setattr(compiled, "_HAVE_SCIPY", numpy_column)
        topo = weighted_square()
        topo.link("a", "c").length = bad
        with pytest.raises(ValueError, match=r"link length must be finite.*\('a', 'c'\)"):
            search(topo, "a", weight=weight)

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("bad", [nan, inf, -1.0], ids=["nan", "inf", "negative"])
    def test_bad_length_fails_to_route(self, backend, bad):
        # Unit square 0-1-3 / 0-2-3 with a bad length on 0-1: both backends
        # must refuse to route rather than treat it as one hop or as +inf.
        if backend == "numpy" and not have_numpy_backend():
            pytest.skip("numpy/scipy not available")
        topo = Topology()
        for node, location in enumerate([(0, 0), (1, 0), (0, 1), (1, 1)]):
            topo.add_node(node, location=location)
        for u, v in [(0, 1), (0, 2), (1, 3), (2, 3)]:
            topo.add_link(u, v)
        topo.link(0, 1).length = bad
        demand = DemandMatrix(endpoints=["0", "3"])
        demand.set_demand("0", "3", 5.0)
        with pytest.raises(ValueError, match=r"link length must be finite.*\(0, 1\)"):
            route_demand(topo, demand, endpoint_map={"0": 0, "3": 3}, backend=backend)

    def test_custom_weight(self):
        # With hop-count weights the long diagonal a-c becomes the best route.
        graph, dist, pred = search(weighted_square(), "a", weight="hops")
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
