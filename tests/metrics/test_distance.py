"""Tests for repro.metrics.distance and the compiled kernels its metrics run."""

from math import inf

import pytest

from repro.metrics.distance import average_shortest_path_hops, hop_diameter
from repro.topology.compiled import batch_hop_lengths, dijkstra_indices
from repro.topology.graph import Topology


class TestAveragePathAndDiameter:
    def test_path_graph_diameter(self, path_topology):
        assert hop_diameter(path_topology) == 5

    def test_star_diameter(self, star_topology):
        assert hop_diameter(star_topology) == 2

    def test_average_path_star(self, star_topology):
        # 5 pairs at distance 1 (hub-leaf) * 2 directions + 20 leaf-leaf at 2.
        expected = (10 * 1 + 20 * 2) / 30
        assert average_shortest_path_hops(star_topology) == pytest.approx(expected)

    def test_sampled_average_close_to_exact(self, path_topology):
        exact = average_shortest_path_hops(path_topology)
        sampled = average_shortest_path_hops(path_topology, sample_size=3, seed=1)
        assert abs(exact - sampled) < 2.0

    def test_single_node(self):
        topo = Topology()
        topo.add_node("only")
        assert average_shortest_path_hops(topo) == 0.0
        assert hop_diameter(topo) == 0

    def test_weighted_diameter(self, triangle_topology):
        graph = triangle_topology.compiled()
        weights = graph.edge_weight_column(None)
        rows = [dijkstra_indices(graph, s, weights)[0] for s in range(graph.num_nodes)]
        assert max(d for row in rows for d in row if d != inf) == pytest.approx(2 ** 0.5)


class TestEccentricity:
    def test_path_eccentricities(self, path_topology):
        graph = path_topology.compiled()
        rows = batch_hop_lengths(graph, range(graph.num_nodes))
        eccentricities = {graph.ids[index]: max(row) for index, row in enumerate(rows)}
        assert eccentricities[0] == 5
        assert eccentricities[2] == 3
        assert eccentricities[5] == 5
