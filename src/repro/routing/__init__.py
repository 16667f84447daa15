"""Routing substrate: path selection, demand assignment, utilization analysis.

The hot path is the vectorized traffic engine (:mod:`repro.routing.engine`):
demand compiles to int-indexed arrays, routing batches one search per unique
source, and loads live in per-edge columns until a single flush annotates the
object graph.  :mod:`repro.routing.paths` maps weight names (``"length"``,
``"hops"``, ``"inverse-capacity"``) to the link-weight functions the kernels
evaluate.

:func:`route_demand` is the façade for one demand snapshot;
:mod:`repro.routing.temporal` extends it along the time axis
(:func:`route_series` diff-routes a :class:`DemandSeries`,
:func:`failure_cascade` iterates overload trips to a fixed point), with
:class:`RoutingOptions` carrying the shared weight/mode/method/backend
vocabulary across all entry points.
"""

from .options import (
    ROUTING_BACKENDS,
    ROUTING_METHODS,
    ROUTING_MODES,
    RoutingOptions,
)
from .paths import (
    WEIGHT_FUNCTIONS,
    resolve_weight,
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
    route_demand_hierarchical,
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
from .assignment import (
    AssignmentResult,
    assign_demand,
    route_customer_demand_to_core,
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
    "WEIGHT_FUNCTIONS",
    "resolve_weight",
    "CompiledDemand",
    "FlowResult",
    "compile_demand",
    "route_demand",
    "HierarchicalOverlay",
    "OverlayTooLarge",
    "build_overlay",
    "overlay_for",
    "route_demand_hierarchical",
    "AssignmentResult",
    "assign_demand",
    "route_customer_demand_to_core",
    "UtilizationReport",
    "load_concentration",
    "utilization_bin",
    "utilization_report",
]
