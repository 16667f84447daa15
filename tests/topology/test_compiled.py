"""Tests for repro.topology.compiled (CSR view + versioned invalidation)."""

import pytest

from repro.topology.compiled import (
    KERNEL_COUNTERS,
    bfs_indices,
    components_indices,
    dijkstra_indices,
    multi_source_bfs_indices,
)
from repro.topology.graph import Topology
from repro.topology.link import Link
from repro.topology.node import Node


def diamond() -> Topology:
    topo = Topology()
    for n in "abcd":
        topo.add_node(n)
    topo.add_link("a", "b", length=1.0)
    topo.add_link("b", "d", length=1.0)
    topo.add_link("a", "c", length=2.0)
    topo.add_link("c", "d", length=2.0)
    return topo


class TestVersioning:
    def test_new_topology_starts_at_zero(self):
        assert Topology().version == 0

    def test_every_mutator_bumps_version(self):
        topo = Topology()
        seen = {topo.version}

        def check(action):
            action()
            assert topo.version not in seen, "mutation did not bump version"
            seen.add(topo.version)

        check(lambda: topo.add_node("a"))
        check(lambda: topo.add_node_object(Node(node_id="b")))
        check(lambda: topo.add_link("a", "b"))
        check(lambda: topo.remove_link("a", "b"))
        check(lambda: topo.add_link_object(Link(source="a", target="b")))
        check(lambda: topo.remove_node("b"))
        check(topo.touch)

    def test_compiled_cached_until_mutation(self):
        topo = diamond()
        first = topo.compiled()
        assert topo.compiled() is first
        topo.add_node("e")
        second = topo.compiled()
        assert second is not first
        assert second.version == topo.version


class TestCompiledStructure:
    def test_shape(self):
        graph = diamond().compiled()
        assert graph.num_nodes == 4
        assert graph.num_edges == 4
        assert len(graph.indptr) == 5
        assert len(graph.indices) == 8
        assert graph.indptr[-1] == 8

    def test_id_index_round_trip(self):
        graph = diamond().compiled()
        for node_id, index in graph.index_of.items():
            assert graph.ids[index] == node_id

    def test_degrees_match_topology(self):
        topo = diamond()
        graph = topo.compiled()
        degrees = graph.degrees()
        for node_id, index in graph.index_of.items():
            assert degrees[index] == topo.degree(node_id)
            assert graph.degree(index) == topo.degree(node_id)

    def test_edge_columns_align_with_links(self):
        topo = diamond()
        graph = topo.compiled()
        for e, link in enumerate(graph.links):
            assert graph.ids[graph.edge_u[e]] == link.source
            assert graph.ids[graph.edge_v[e]] == link.target
            assert graph.edge_keys[e] == link.key

    def test_edge_weights_default_and_negative(self):
        topo = diamond()
        graph = topo.compiled()
        weights = graph.edge_weight_column(None)
        assert sorted(weights) == [1.0, 1.0, 2.0, 2.0]
        # A negative length written after construction fails the next build.
        next(iter(topo.links())).length = -1.0
        topo.touch()
        with pytest.raises(ValueError, match="link length must be finite"):
            topo.compiled().edge_weight_column(None)


class TestKernels:
    def test_dijkstra_distances_and_predecessor_edges(self):
        topo = diamond()
        graph = topo.compiled()
        weights = graph.edge_weight_column("length")
        dist, pred, pred_edge = dijkstra_indices(graph, graph.index_of["a"], weights)
        assert dist[graph.index_of["d"]] == pytest.approx(2.0)
        d = graph.index_of["d"]
        assert graph.ids[pred[d]] == "b"
        assert graph.edge_keys[pred_edge[d]] == ("b", "d")

    def test_multi_source_bfs_nearest_distance(self):
        topo = Topology()
        for i in range(5):
            topo.add_node(i)
        for i in range(4):
            topo.add_link(i, i + 1)
        graph = topo.compiled()
        dist = multi_source_bfs_indices(graph, [graph.index_of[0], graph.index_of[4]])
        assert dist[graph.index_of[2]] == 2
        assert dist[graph.index_of[3]] == 1

    def test_components_with_mask(self):
        topo = Topology()
        for i in range(4):
            topo.add_node(i)
        topo.add_link(0, 1)
        topo.add_link(1, 2)
        graph = topo.compiled()
        labels, count = components_indices(graph)
        assert count == 2
        mask = graph.full_mask()
        mask[graph.index_of[1]] = 0
        labels, count = components_indices(graph, mask)
        assert count == 3
        assert labels[graph.index_of[1]] == -1


class TestCounters:
    def test_counters_track_invocations(self):
        topo = diamond()
        KERNEL_COUNTERS.reset()
        graph = topo.compiled()
        weights = graph.edge_weight_column("length")
        dijkstra_indices(graph, 0, weights)
        bfs_indices(graph, 0)
        components_indices(graph)
        snapshot = KERNEL_COUNTERS.snapshot()
        assert snapshot["compilations"] == 1
        assert snapshot["single_source"] == 1
        assert snapshot["bfs"] == 1
        assert snapshot["components"] == 1
