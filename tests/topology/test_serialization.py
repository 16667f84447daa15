"""Tests for repro.topology.serialization."""

import re

import pytest

from repro.topology.graph import Topology, TopologyError
from repro.topology.node import NodeRole
from repro.topology.serialization import (
    load_json,
    save_json,
    topology_from_dict,
    topology_to_dict,
)


class TestDictRoundTrip:
    def test_round_trip_preserves_structure(self, triangle_topology):
        triangle_topology.metadata["note"] = "test"
        restored = topology_from_dict(topology_to_dict(triangle_topology))
        assert restored.num_nodes == 3
        assert restored.num_links == 3
        assert restored.metadata["note"] == "test"
        assert restored.node("b").demand == 2.0
        assert restored.node("a").role == NodeRole.CORE

    def test_round_trip_preserves_link_annotations(self):
        topo = Topology()
        topo.add_node("a")
        topo.add_node("b")
        topo.add_link("a", "b", capacity=155.0, cable="OC-3", install_cost=3.0)
        restored = topology_from_dict(topology_to_dict(topo))
        link = restored.link("a", "b")
        assert link.capacity == 155.0
        assert link.cable == "OC-3"

    def test_load_enforces_max_degree(self):
        data = {
            "nodes": [{"node_id": "a", "max_degree": 1}, {"node_id": "b"}, {"node_id": "c"}],
            "links": [{"source": "a", "target": "b"}, {"source": "a", "target": "c"}],
        }
        message = "adding link ('a', 'c') would exceed max_degree=1 of node 'a'"
        with pytest.raises(TopologyError, match=re.escape(message)):
            topology_from_dict(data)


class TestJson:
    def test_save_and_load(self, tmp_path, star_topology):
        path = tmp_path / "star.json"
        save_json(star_topology, path)
        restored = load_json(path)
        assert restored.num_nodes == star_topology.num_nodes
        assert restored.num_links == star_topology.num_links
        assert restored.node("hub").role == NodeRole.CORE

    def test_non_finite_length_rejected_on_load(self, tmp_path):
        # json.loads accepts the NaN literal, so the Link check is the guard.
        path = tmp_path / "nan.json"
        path.write_text(
            '{"nodes": [{"node_id": "a"}, {"node_id": "b"}],'
            ' "links": [{"source": "a", "target": "b", "length": NaN}]}'
        )
        with pytest.raises(ValueError, match="length"):
            load_json(path)
