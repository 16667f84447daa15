"""Cross-validation of our graph algorithms and metrics against networkx.

networkx is a test-only dependency: the library implements its own substrate,
and these tests confirm the implementations agree with the reference library
on randomly generated topologies.
"""

import random

import pytest

networkx = pytest.importorskip("networkx")

from repro.generators import ErdosRenyiGenerator, WaxmanGenerator
from repro.metrics.clustering import average_clustering, transitivity
from repro.metrics.degree import degree_histogram
from repro.metrics.distance import average_shortest_path_hops, hop_diameter
from repro.optimization.mst import minimum_spanning_tree
from repro.optimization.shortest_path import all_pairs_shortest_lengths


def to_networkx(topology):
    """The topology as a ``networkx.Graph`` whose edges carry ``length``."""
    graph = networkx.Graph()
    graph.add_nodes_from(topology.node_ids())
    for link in topology.links():
        graph.add_edge(link.source, link.target, length=link.length)
    return graph


@pytest.fixture(scope="module", params=[0, 1, 2])
def random_topology(request):
    generator = ErdosRenyiGenerator(target_mean_degree=5.0)
    return generator.generate(80, seed=request.param)


class TestStructuralAgreement:
    def test_node_and_edge_counts(self, random_topology):
        graph = to_networkx(random_topology)
        assert graph.number_of_nodes() == random_topology.num_nodes
        assert graph.number_of_edges() == random_topology.num_links

    def test_degree_histogram_matches(self, random_topology):
        graph = to_networkx(random_topology)
        ours = degree_histogram(random_topology)
        theirs = {}
        for _, degree in graph.degree():
            theirs[degree] = theirs.get(degree, 0) + 1
        assert ours == theirs

    def test_connectivity_agrees(self, random_topology):
        graph = to_networkx(random_topology)
        assert random_topology.is_connected() == networkx.is_connected(graph)


class TestMetricAgreement:
    def test_average_clustering_matches(self, random_topology):
        graph = to_networkx(random_topology)
        assert average_clustering(random_topology) == pytest.approx(
            networkx.average_clustering(graph), abs=1e-9
        )

    def test_transitivity_matches(self, random_topology):
        graph = to_networkx(random_topology)
        assert transitivity(random_topology) == pytest.approx(
            networkx.transitivity(graph), abs=1e-9
        )

    def test_average_path_length_matches(self, random_topology):
        graph = to_networkx(random_topology)
        ours = average_shortest_path_hops(random_topology)
        theirs = networkx.average_shortest_path_length(graph)
        assert ours == pytest.approx(theirs, rel=1e-9)

    def test_diameter_matches(self, random_topology):
        graph = to_networkx(random_topology)
        assert hop_diameter(random_topology) == networkx.diameter(graph)


class TestAlgorithmAgreement:
    def test_dijkstra_matches_networkx(self):
        topology = WaxmanGenerator(alpha_w=0.3, beta=0.6).generate(60, seed=3)
        graph = to_networkx(topology)
        source = 0
        ours = all_pairs_shortest_lengths(topology, sources=[source])[source]
        theirs = networkx.single_source_dijkstra_path_length(
            graph, source, weight=lambda u, v, data: data["length"] or 1.0
        )
        assert set(ours) == set(theirs)
        for node, distance in theirs.items():
            assert ours[node] == pytest.approx(distance, rel=1e-9)

    def test_mst_total_weight_matches_networkx(self):
        topology = WaxmanGenerator(alpha_w=0.3, beta=0.6).generate(60, seed=4)
        graph = to_networkx(topology)
        ours = minimum_spanning_tree(topology)
        theirs = networkx.minimum_spanning_tree(graph, weight="length")
        our_weight = sum(link.length for link in ours.links())
        their_weight = sum(data["length"] for _, _, data in theirs.edges(data=True))
        assert our_weight == pytest.approx(their_weight, rel=1e-9)

    def test_random_tree_is_tree_for_both(self):
        rng = random.Random(5)
        from repro.topology.graph import Topology

        topology = Topology()
        for i in range(30):
            topology.add_node(i)
        for i in range(1, 30):
            topology.add_link(i, rng.randrange(i))
        graph = to_networkx(topology)
        assert topology.is_tree()
        assert networkx.is_tree(graph)
