"""Tests for repro.routing.paths and per-pair searches with its named weights."""

from math import inf

import pytest

from repro.routing.paths import WEIGHT_FUNCTIONS, resolve_weight
from repro.topology.compiled import dijkstra_indices
from repro.topology.graph import Topology


def diamond() -> Topology:
    """a connected to d by two disjoint 2-hop paths and one direct long link."""
    topo = Topology()
    for n in "abcd":
        topo.add_node(n)
    topo.add_link("a", "b", length=1.0)
    topo.add_link("b", "d", length=1.0)
    topo.add_link("a", "c", length=1.0)
    topo.add_link("c", "d", length=1.0)
    topo.add_link("a", "d", length=10.0)
    return topo


def route(topo: Topology, source, target, weight="length"):
    """One pair's shortest path on the topology's current compiled view.

    Returns ``(distance, nodes, links, keys)``, with ``nodes`` ``None`` when
    ``target`` is unreachable; links and keys come from the predecessor edges.
    """
    graph = topo.compiled()
    weights = graph.edge_weights(resolve_weight(weight))
    source_index, target_index = graph.index_of[source], graph.index_of[target]
    dist, pred, pred_edge = dijkstra_indices(graph, source_index, weights)
    if dist[target_index] == inf:
        return inf, None, [], []
    nodes, links, keys = [target], [], []
    current = target_index
    while current != source_index:
        edge = pred_edge[current]
        links.append(graph.links[edge])
        keys.append(graph.edge_keys[edge])
        current = pred[current]
        nodes.append(graph.ids[current])
    return dist[target_index], nodes[::-1], links[::-1], keys[::-1]


class TestWeights:
    def test_named_weights_resolve(self):
        for name in WEIGHT_FUNCTIONS:
            assert callable(resolve_weight(name))

    def test_default_weight_is_length(self):
        assert resolve_weight(None) is WEIGHT_FUNCTIONS["length"]

    def test_unknown_weight_raises(self):
        with pytest.raises(KeyError):
            resolve_weight("congestion")


class TestPathCache:
    def test_path_and_distance(self):
        distance, nodes, _, _ = route(diamond(), "a", "d")
        assert distance == pytest.approx(2.0)
        assert nodes[0] == "a" and nodes[-1] == "d" and len(nodes) == 3

    def test_unreachable(self):
        topo = Topology()
        topo.add_node("x")
        topo.add_node("y")
        distance, nodes, _, _ = route(topo, "x", "y")
        assert nodes is None
        assert distance == inf

    def test_invalidate(self):
        topo = diamond()
        before = topo.compiled()
        assert route(topo, "a", "d")[0] == pytest.approx(2.0)
        topo.remove_link("a", "b")
        topo.remove_link("a", "c")
        assert topo.compiled() is not before
        assert route(topo, "a", "d")[0] == pytest.approx(10.0)

    def test_shortest_path_between_hops_weight(self):
        _, nodes, _, _ = route(diamond(), "a", "d", weight="hops")
        assert nodes == ["a", "d"]


class TestPathCacheVersionedInvalidation:
    """Structural mutations replace the compiled view a search runs on."""

    def test_mutation_auto_invalidates(self):
        topo = diamond()
        assert route(topo, "a", "d")[0] == pytest.approx(2.0)
        version = topo.version
        topo.remove_link("a", "b")
        topo.remove_link("a", "c")
        assert topo.version != version
        distance, nodes, _, _ = route(topo, "a", "d")
        assert distance == pytest.approx(10.0)
        assert nodes == ["a", "d"]

    def test_added_shortcut_used_immediately(self):
        topo = diamond()
        assert route(topo, "a", "d")[0] == pytest.approx(2.0)
        topo.add_link("b", "c", length=0.1)
        assert route(topo, "b", "c")[0] == pytest.approx(0.1)

    def test_route_resolves_links_and_keys(self):
        topo = diamond()
        _, nodes, links, keys = route(topo, "a", "d")
        assert nodes[0] == "a" and nodes[-1] == "d"
        assert len(links) == len(nodes) - 1
        for (u, v), link, key in zip(zip(nodes, nodes[1:]), links, keys):
            assert link is topo.link(u, v)
            assert key == link.key

    def test_route_source_equals_target(self):
        distance, nodes, links, keys = route(diamond(), "a", "a")
        assert distance == 0.0
        assert nodes == ["a"]
        assert links == [] and keys == []
