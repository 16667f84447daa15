"""Capacity provisioning: turn routed flows into installed cables and costs.

Given a topology whose links carry loads (from routing or from a tree-flow
computation), choose for each link the cheapest cable installation from a
:class:`~repro.economics.cables.CableCatalog` and annotate the link with the
resulting capacity and cost.  This is the step that converts a pure
connectivity solution into the "connectivity plus resource capacity" object
the paper calls a topology.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Any, Dict

from ..routing.utilization import _resolve_flow_loads
from ..topology.graph import Topology
from .cables import CableCatalog


@dataclass
class ProvisioningReport:
    """Summary of a provisioning pass over a topology.

    Attributes:
        total_install_cost: Sum of installation costs over all links.
        total_usage_cost: Sum of usage costs (marginal rate times load).
        cable_counts: Number of links provisioned with each cable type.
        overprovisioning: Installed capacity divided by carried load (>= 1),
            averaged over loaded links.
    """

    total_install_cost: float
    total_usage_cost: float
    cable_counts: Dict[str, int]
    overprovisioning: float

    @property
    def total_cost(self) -> float:
        """Total provisioning cost."""
        return self.total_install_cost + self.total_usage_cost


def provision_topology(
    topology: Topology,
    catalog: CableCatalog,
    utilization_target: float = 1.0,
    headroom: float = 0.0,
    flow: Any = None,
) -> ProvisioningReport:
    """Install cables on every loaded link of ``topology`` in place.

    For each link the required capacity is ``load * (1 + headroom) /
    utilization_target``; the cheapest cable installation covering it is
    selected from the catalog, and the link's ``capacity``, ``cable``,
    ``install_cost``, and ``usage_cost`` fields are updated.

    Args:
        topology: Topology whose links carry ``load`` values.
        catalog: Cable catalog to provision from.
        utilization_target: Maximum allowed utilization of installed capacity
            (values below 1 force spare capacity).
        headroom: Additional fractional headroom on top of the current load.
        flow: Optional routing result (e.g. a
            :class:`~repro.routing.engine.FlowResult`) whose edge-load column
            drives provisioning: each link is provisioned for — and annotated
            with — the column's load in the same pass, so the array pipeline
            flushes loads and installs cables in one sweep.  The result is
            validated against the topology's current compiled snapshot; a
            stale one raises :class:`~repro.topology.graph.TopologyError`.

    Returns:
        A :class:`ProvisioningReport` with aggregate statistics.
    """
    if not 0 < utilization_target <= 1:
        raise ValueError("utilization_target must be in (0, 1]")
    # Written so that NaN fails: a NaN compares false.
    if not 0 <= headroom < inf:
        raise ValueError(f"headroom must be finite and non-negative, got {headroom}")

    loads = _resolve_flow_loads(topology, flow, "provision_topology")
    if loads is None:
        links = list(topology.links())
    else:
        links = topology.compiled().links
        for link, load in zip(links, loads):
            link.load = load

    total_install = 0.0
    total_usage = 0.0
    cable_counts: Dict[str, int] = {}
    ratios = []
    for link in links:
        required = link.load * (1.0 + headroom) / utilization_target
        if required <= 0:
            # Unloaded links get the smallest cable so the topology stays connected.
            cable, copies = catalog.smallest, 1
        else:
            cable, copies = catalog.provision(required)
        capacity = cable.capacity * copies
        install_cost = cable.install_cost * copies * link.length
        usage_cost_rate = cable.usage_cost * link.length
        link.capacity = capacity
        link.cable = cable.name
        link.install_cost = install_cost
        link.usage_cost = usage_cost_rate
        total_install += install_cost
        total_usage += usage_cost_rate * link.load
        cable_counts[cable.name] = cable_counts.get(cable.name, 0) + 1
        if link.load > 0:
            ratios.append(capacity / link.load)

    overprovisioning = sum(ratios) / len(ratios) if ratios else float("inf")
    return ProvisioningReport(
        total_install_cost=total_install,
        total_usage_cost=total_usage,
        cable_counts=cable_counts,
        overprovisioning=overprovisioning,
    )
