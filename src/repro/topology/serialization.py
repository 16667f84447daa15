"""Serialization for :class:`~repro.topology.graph.Topology`.

Supports round-tripping through plain dictionaries and JSON files.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

from .graph import Topology
from .link import Link
from .node import Node


def topology_to_dict(topology: Topology) -> Dict[str, Any]:
    """Serialize a topology (nodes, links, metadata) to a plain dictionary."""
    return {
        "name": topology.name,
        "metadata": dict(topology.metadata),
        "nodes": [node.to_dict() for node in topology.nodes()],
        "links": [link.to_dict() for link in topology.links()],
    }


def topology_from_dict(data: Dict[str, Any]) -> Topology:
    """Reconstruct a topology from :func:`topology_to_dict` output."""
    topology = Topology(name=data.get("name", "topology"))
    topology.metadata = dict(data.get("metadata", {}))
    for node_data in data.get("nodes", []):
        topology.add_node_object(Node.from_dict(node_data))
    for link_data in data.get("links", []):
        topology.add_link_object(Link.from_dict(link_data))
    return topology


def save_json(topology: Topology, path: Union[str, Path]) -> None:
    """Write a topology to a JSON file."""
    path = Path(path)
    path.write_text(json.dumps(topology_to_dict(topology), indent=2, default=str))


def load_json(path: Union[str, Path]) -> Topology:
    """Read a topology from a JSON file written by :func:`save_json`."""
    data = json.loads(Path(path).read_text())
    return topology_from_dict(data)
