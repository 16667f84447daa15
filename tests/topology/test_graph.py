"""Tests for repro.topology.graph.Topology."""

import pytest

from repro.topology.graph import Topology, TopologyError, union
from repro.topology.link import Link
from repro.topology.node import NodeRole


class TestNodeOperations:
    def test_add_and_lookup(self):
        topo = Topology()
        topo.add_node("a", role=NodeRole.CORE, location=(0, 0))
        assert topo.has_node("a")
        assert topo.node("a").role == NodeRole.CORE
        assert topo.num_nodes == 1

    def test_duplicate_node_rejected(self):
        topo = Topology()
        topo.add_node("a")
        with pytest.raises(TopologyError):
            topo.add_node("a")

    def test_missing_node_raises(self):
        topo = Topology()
        with pytest.raises(TopologyError):
            topo.node("ghost")

    def test_remove_node_removes_incident_links(self, triangle_topology):
        triangle_topology.remove_node("b")
        assert not triangle_topology.has_node("b")
        assert triangle_topology.num_links == 1
        assert triangle_topology.has_link("a", "c")

    def test_contains_and_len(self, triangle_topology):
        assert "a" in triangle_topology
        assert "zzz" not in triangle_topology
        assert len(triangle_topology) == 3


class TestLinkOperations:
    def test_add_link_requires_nodes(self):
        topo = Topology()
        topo.add_node("a")
        with pytest.raises(TopologyError):
            topo.add_link("a", "missing")

    def test_duplicate_link_rejected(self, triangle_topology):
        with pytest.raises(TopologyError):
            triangle_topology.add_link("a", "b")

    def test_duplicate_link_reversed_rejected(self, triangle_topology):
        with pytest.raises(TopologyError):
            triangle_topology.add_link("b", "a")

    def test_length_defaults_to_euclidean(self, triangle_topology):
        assert triangle_topology.link("a", "b").length == pytest.approx(1.0)
        assert triangle_topology.link("b", "c").length == pytest.approx(2 ** 0.5)

    def test_length_zero_without_locations(self, path_topology):
        assert path_topology.link(0, 1).length == 0.0

    def test_remove_link(self, triangle_topology):
        triangle_topology.remove_link("a", "b")
        assert not triangle_topology.has_link("a", "b")
        assert triangle_topology.num_links == 2

    def test_remove_missing_link_raises(self, path_topology):
        with pytest.raises(TopologyError):
            path_topology.remove_link(0, 5)

    def test_max_degree_enforced_on_add(self):
        topo = Topology()
        topo.add_node("hub", max_degree=1)
        topo.add_node("a")
        topo.add_node("b")
        topo.add_link("hub", "a")
        with pytest.raises(TopologyError):
            topo.add_link("hub", "b")

    def test_max_degree_enforced_on_add_link_object(self):
        topo = Topology()
        topo.add_node("hub", max_degree=1)
        topo.add_node("a")
        topo.add_node("b")
        topo.add_link_object(Link(source="hub", target="a"))
        with pytest.raises(TopologyError, match="max_degree=1"):
            topo.add_link_object(Link(source="b", target="hub"))
        assert topo.num_links == 1
        assert topo.validate() == []

    def test_has_link_self(self, triangle_topology):
        assert not triangle_topology.has_link("a", "a")


class TestStructure:
    def test_degree_and_sequence(self, star_topology):
        assert star_topology.degree("hub") == 5
        assert sorted(star_topology.degree_sequence()) == [1, 1, 1, 1, 1, 5]

    def test_neighbors(self, path_topology):
        assert set(path_topology.neighbors(2)) == {1, 3}

    def test_bfs_order_reaches_all(self, path_topology):
        assert set(path_topology.bfs_order(0)) == set(range(6))

    def test_hop_distances(self, path_topology):
        distances = path_topology.hop_distances(0)
        assert distances[5] == 5
        assert distances[0] == 0

    def test_connected_components_single(self, path_topology):
        assert len(path_topology.connected_components()) == 1

    def test_connected_components_multiple(self):
        topo = Topology()
        for i in range(4):
            topo.add_node(i)
        topo.add_link(0, 1)
        topo.add_link(2, 3)
        assert len(topo.connected_components()) == 2
        assert not topo.is_connected()

    def test_is_tree(self, path_topology, triangle_topology):
        assert path_topology.is_tree()
        assert not triangle_topology.is_tree()

    def test_empty_topology_not_connected(self):
        assert not Topology().is_connected()
        assert not Topology().is_tree()

    def test_subgraph(self, triangle_topology):
        sub = triangle_topology.subgraph(["a", "b"])
        assert sub.num_nodes == 2
        assert sub.num_links == 1
        assert sub.node("b").demand == 2.0

    def test_subgraph_missing_node_raises(self, triangle_topology):
        with pytest.raises(TopologyError):
            triangle_topology.subgraph(["a", "zzz"])

    def test_copy_is_independent(self, triangle_topology):
        duplicate = triangle_topology.copy()
        duplicate.remove_node("a")
        assert triangle_topology.has_node("a")
        assert duplicate.num_nodes == 2


class TestAggregates:
    def test_costs(self):
        topo = Topology()
        topo.add_node("a")
        topo.add_node("b")
        topo.add_link("a", "b", install_cost=10.0, usage_cost=2.0, load=3.0)
        assert topo.total_install_cost() == pytest.approx(10.0)
        assert topo.total_usage_cost() == pytest.approx(6.0)
        assert topo.total_cost() == pytest.approx(16.0)

    def test_total_length(self, triangle_topology):
        assert triangle_topology.total_length() == pytest.approx(2 + 2 ** 0.5)


class TestValidation:
    def test_valid_topology_has_no_problems(self, triangle_topology):
        assert triangle_topology.validate() == []

    def test_overloaded_link_detected(self):
        topo = Topology()
        topo.add_node("a")
        topo.add_node("b")
        link = topo.add_link("a", "b", capacity=10.0)
        link.load = 20.0
        problems = topo.validate()
        assert any("overloaded" in p for p in problems)


class TestUnion:
    def test_union_merges_disjoint(self, path_topology, star_topology):
        merged = union([path_topology, star_topology])
        assert merged.num_nodes == path_topology.num_nodes + star_topology.num_nodes
        assert merged.num_links == path_topology.num_links + star_topology.num_links

    def test_union_deduplicates_shared_nodes(self):
        t1 = Topology()
        t1.add_node("x", demand=1.0)
        t1.add_node("y")
        t1.add_link("x", "y")
        t2 = Topology()
        t2.add_node("x", demand=99.0)
        t2.add_node("z")
        t2.add_link("x", "z")
        merged = union([t1, t2])
        assert merged.num_nodes == 3
        assert merged.node("x").demand == 1.0
        assert merged.num_links == 2


class TestSelfLoopErrors:
    """Self-loop attempts raise TopologyError everywhere, never bare ValueError."""

    def build(self) -> Topology:
        topo = Topology()
        topo.add_node("a")
        topo.add_node("b")
        topo.add_link("a", "b")
        return topo

    def test_add_link_self_loop_raises_topology_error(self):
        topo = self.build()
        with pytest.raises(TopologyError, match="self-loop"):
            topo.add_link("a", "a")

    def test_link_lookup_self_loop_raises_topology_error(self):
        topo = self.build()
        with pytest.raises(TopologyError, match="self-loop"):
            topo.link("a", "a")

    def test_remove_link_self_loop_raises_topology_error(self):
        topo = self.build()
        with pytest.raises(TopologyError, match="self-loop"):
            topo.remove_link("a", "a")

    def test_has_link_self_loop_is_false_not_error(self):
        topo = self.build()
        assert topo.has_link("a", "a") is False

    def test_missing_link_still_topology_error(self):
        topo = self.build()
        with pytest.raises(TopologyError, match="does not exist"):
            topo.link("a", "ghost")
        with pytest.raises(TopologyError, match="does not exist"):
            topo.remove_link("a", "ghost")
