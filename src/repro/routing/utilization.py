"""Link utilization analysis of loaded, provisioned topologies.

The analysis entry points consume routing results uniformly: pass the
:class:`~repro.routing.engine.FlowResult` returned by ``route_demand`` and
the edge-load column is validated against the topology's *current* compiled
snapshot (a stale result — the topology mutated since routing — raises
:class:`~repro.topology.graph.TopologyError` instead of silently repricing
against a different graph).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..topology.graph import Topology


def _resolve_flow_loads(topology: Topology, flow: Any, caller: str) -> Optional[Sequence[float]]:
    """The edge-load column of ``flow`` validated against ``topology``.

    ``flow`` is anything with a ``loads_for(topology)`` method (a
    :class:`~repro.routing.engine.FlowResult` or a temporal step result) —
    the method validates the snapshot version and returns the edge column,
    aligned with ``topology.compiled().links``.  Returns ``None`` for
    ``flow=None`` (callers then read the annotated ``Link.load`` values);
    anything else, such as a bare load column, raises :class:`TypeError`.
    """
    if flow is None:
        return None
    if not hasattr(flow, "loads_for"):
        raise TypeError(
            f"{caller}() takes a routing result with loads_for() as flow, got {type(flow).__name__}"
        )
    return flow.loads_for(topology)


def utilization_bin(utilization: float) -> float:
    """The 10%-wide histogram bin key for one utilization value.

    Bins are keyed by their lower edge (``0.0``, ``0.1``, ..., ``0.9``) and
    half-open: a utilization of exactly 0.1 lands in the ``0.1`` bin.  The
    last bin is the overflow bin — every utilization of 90% and above,
    including overloads past 100%, lands in ``0.9``.
    """
    # Written so that NaN fails; +inf lands in the overflow bin.
    if not utilization >= 0:
        raise ValueError(f"utilization must be non-negative, got {utilization}")
    return int(min(9.0, utilization * 10)) / 10.0


@dataclass
class UtilizationReport:
    """Aggregate utilization statistics of a topology.

    Attributes:
        mean_utilization: Mean load/capacity over links with positive capacity.
        peak_utilization: Maximum utilization.
        overloaded_links: Canonical keys of links with load > capacity —
            including zero-capacity links carrying load, whose utilization is
            unbounded and therefore excluded from the mean/peak/histogram.
        total_load: Sum of link loads.
        total_capacity: Sum of installed capacities (finite ones only).
        utilization_histogram: Counts of links in 10%-wide utilization bins
            (see :func:`utilization_bin`; keys 0.0, 0.1, ..., 0.9 with the
            last bin holding everything >= 90%, overloads included).
    """

    mean_utilization: float
    peak_utilization: float
    overloaded_links: List[Tuple]
    total_load: float
    total_capacity: float
    utilization_histogram: Dict[float, int]


def utilization_report(topology: Topology, flow: Any = None) -> UtilizationReport:
    """Compute utilization statistics over all capacity-annotated links.

    Args:
        topology: The provisioned topology.
        flow: Optional routing result (e.g. a
            :class:`~repro.routing.engine.FlowResult`) whose edge-load column
            supplies the statistics — the annotated ``Link.load`` values are
            ignored, so the array pipeline needs no flush before analysis.
            The result is validated against the topology's current snapshot;
            a stale result raises
            :class:`~repro.topology.graph.TopologyError`.
    """
    loads = _resolve_flow_loads(topology, flow, "utilization_report")
    utilizations = []
    overloaded = []
    total_load = 0.0
    total_capacity = 0.0
    histogram: Dict[float, int] = {round(b / 10.0, 1): 0 for b in range(10)}
    if loads is None:
        links = list(topology.links())
        loads = [link.load for link in links]
    else:
        links = topology.compiled().links
    for link, load in zip(links, loads):
        total_load += load
        capacity = link.capacity
        if capacity is None:
            continue
        if capacity <= 0:
            # Unbounded utilization: never divides, but a loaded link with no
            # installed capacity is an overload, not a link to skip silently.
            if load > 1e-9:
                overloaded.append(link.key)
            continue
        total_capacity += capacity
        utilization = load / capacity
        utilizations.append(utilization)
        if load > capacity + 1e-9:
            overloaded.append(link.key)
        histogram[utilization_bin(utilization)] += 1
    mean = sum(utilizations) / len(utilizations) if utilizations else 0.0
    peak = max(utilizations) if utilizations else 0.0
    return UtilizationReport(
        mean_utilization=mean,
        peak_utilization=peak,
        overloaded_links=overloaded,
        total_load=total_load,
        total_capacity=total_capacity,
        utilization_histogram=histogram,
    )


def load_concentration(
    topology: Topology,
    top_fraction: float = 0.1,
    flow: Any = None,
) -> float:
    """Fraction of total traffic carried by the top ``top_fraction`` of links.

    HOT-style aggregation concentrates traffic onto a few high-capacity trunks
    (values near 1); uniform meshes spread it out.  ``flow`` optionally
    supplies a routing result (validated against the current snapshot, like
    :func:`utilization_report`) instead of the annotated ``Link.load``
    values.
    """
    if not 0 < top_fraction <= 1:
        raise ValueError("top_fraction must be in (0, 1]")
    loads = _resolve_flow_loads(topology, flow, "load_concentration")
    if loads is None:
        loads = [link.load for link in topology.links()]
    ranked = sorted(loads, reverse=True)
    total = sum(ranked)
    if total <= 0:
        return 0.0
    top_count = max(1, int(round(top_fraction * len(ranked))))
    return sum(ranked[:top_count]) / total
