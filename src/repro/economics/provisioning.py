"""Capacity provisioning: turn routed flows into installed cables and costs.

Given a topology whose links carry loads (from routing or from a tree-flow
computation), choose for each link the cheapest cable installation from a
:class:`~repro.economics.cables.CableCatalog` and annotate the link with the
resulting capacity and cost.  This is the step that converts a pure
connectivity solution into the "connectivity plus resource capacity" object
the paper calls a topology.
"""

from __future__ import annotations

from typing import Any

from ..routing.utilization import _resolve_flow_loads
from ..topology.graph import Topology
from .cables import CableCatalog


def provision_topology(topology: Topology, catalog: CableCatalog, flow: Any = None) -> float:
    """Install cables on every link of ``topology`` in place.

    Each link gets the catalog's cheapest installation for its load
    (:meth:`~repro.economics.cables.CableCatalog.installation`), which sets
    its ``cable``, ``capacity``, ``install_cost`` and ``usage_cost``.

    Args:
        topology: Topology whose links carry ``load`` values.
        catalog: Cable catalog to provision from.
        flow: Optional routing result (e.g. a
            :class:`~repro.routing.engine.FlowResult`) whose edge-load column
            drives provisioning: each link is provisioned for — and annotated
            with — the column's load in the same pass, so the array pipeline
            flushes loads and installs cables in one sweep.  The result is
            validated against the topology's current compiled snapshot; a
            stale one raises :class:`~repro.topology.graph.TopologyError`.

    Returns:
        The total installation cost, summed in link order.
    """
    loads = _resolve_flow_loads(topology, flow, "provision_topology")
    if loads is None:
        links = list(topology.links())
    else:
        links = topology.compiled().links
        for link, load in zip(links, loads):
            link.load = load

    total_install = 0.0
    for link in links:
        link.cable, link.capacity, link.install_cost, link.usage_cost = catalog.installation(
            link.load, link.length
        )
        total_install += link.install_cost
    return total_install
