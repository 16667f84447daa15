"""Annotated topology substrate: graphs whose nodes and links carry resources.

Public API:

* :class:`Topology` — the central annotated graph type.
* :class:`Node`, :class:`NodeRole`, :class:`Link` — node/link annotations.
* :class:`DynamicConnectivity` — HDT fully-dynamic connectivity with exact
  per-component service aggregates and O(polylog) deletions.
* :func:`summarize_hierarchy` — WAN/MAN/LAN hierarchy statistics.
* JSON serialization (``topology_to_dict``, ``save_json``, ``load_json``, ...).
"""

from .compiled import CompiledGraph, KERNEL_COUNTERS, KernelCounters
from .dynconn import ComponentSummary, DynamicConnectivity
from .graph import Topology, TopologyError, union
from .link import Link, edge_key
from .node import Node, NodeRole
from .hierarchy import (
    HierarchySummary,
    level_of,
    summarize_hierarchy,
)
from .serialization import (
    load_json,
    save_json,
    topology_from_dict,
    topology_to_dict,
)

__all__ = [
    "CompiledGraph",
    "ComponentSummary",
    "DynamicConnectivity",
    "KernelCounters",
    "KERNEL_COUNTERS",
    "Topology",
    "TopologyError",
    "union",
    "Link",
    "edge_key",
    "Node",
    "NodeRole",
    "HierarchySummary",
    "level_of",
    "summarize_hierarchy",
    "load_json",
    "save_json",
    "topology_from_dict",
    "topology_to_dict",
]
