"""Routing substrate: path selection, demand routing, utilization analysis.

The hot path is the vectorized traffic engine (:mod:`repro.routing.engine`):
demand compiles to int-indexed arrays, routing batches one search per unique
source, and loads live in per-edge columns until a single flush annotates the
object graph.  A route weighs each link by physical length (the default) or
by hop count, named ``"length"`` or ``"hops"`` (:data:`ROUTING_WEIGHTS`).

:func:`route_demand` (flat or ``method="hierarchical"``) is the façade for
one demand snapshot; :mod:`repro.routing.temporal` extends it along the time
axis (:func:`route_series` diff-routes a :class:`DemandSeries`,
:func:`failure_cascade` iterates overload trips to a fixed point).  These
three are the routing entry points.  Each takes its switches as keyword
arguments and validates them through :class:`RoutingOptions`, the shared
weight/mode/method/backend vocabulary.
"""

from .options import (
    ROUTING_BACKENDS,
    ROUTING_METHODS,
    ROUTING_MODES,
    ROUTING_WEIGHTS,
    RoutingOptions,
)
from .engine import (
    CompiledDemand,
    FlowResult,
    compile_demand,
    route_demand,
)
from .hierarchical import (
    HierarchicalOverlay,
    OverlayTooLarge,
    build_overlay,
    overlay_for,
)
from .temporal import (
    CascadeResult,
    CascadeRound,
    CompiledSeries,
    DemandSeries,
    TemporalFlowResult,
    TemporalStepResult,
    compile_series,
    diurnal_series,
    failure_cascade,
    flash_crowd,
    route_series,
)
from .utilization import (
    UtilizationReport,
    load_concentration,
    utilization_bin,
    utilization_report,
)

__all__ = [
    "ROUTING_BACKENDS",
    "ROUTING_METHODS",
    "ROUTING_MODES",
    "ROUTING_WEIGHTS",
    "RoutingOptions",
    "CascadeResult",
    "CascadeRound",
    "CompiledSeries",
    "DemandSeries",
    "TemporalFlowResult",
    "TemporalStepResult",
    "compile_series",
    "diurnal_series",
    "failure_cascade",
    "flash_crowd",
    "route_series",
    "CompiledDemand",
    "FlowResult",
    "compile_demand",
    "route_demand",
    "HierarchicalOverlay",
    "OverlayTooLarge",
    "build_overlay",
    "overlay_for",
    "UtilizationReport",
    "load_concentration",
    "utilization_bin",
    "utilization_report",
]
