"""Routing options: one vocabulary for every routing entry point.

``route_demand`` (flat or hierarchical), ``route_series`` and
``failure_cascade`` take the same keyword switches — ``weight`` (the link
metric, ``"length"`` or ``"hops"``), ``mode`` (flow splitting), ``backend``
(python vs numpy), ``method`` (flat vs hierarchical; ``route_demand``
only).  Each entry point builds a frozen :class:`RoutingOptions` from its
keywords, so this class is the single place the vocabulary is defined and
validated, and every error names the offending field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = [
    "RoutingOptions",
    "ROUTING_WEIGHTS",
    "ROUTING_MODES",
    "ROUTING_METHODS",
    "ROUTING_BACKENDS",
]

#: Link metrics for path selection: physical length (the default; 1.0 for a
#: zero-length link) or hop count.  See
#: :meth:`~repro.topology.compiled.CompiledGraph.edge_weight_column`.
ROUTING_WEIGHTS = ("length", "hops")

#: Flow-splitting modes: one canonical shortest path vs equal-cost multipath.
ROUTING_MODES = ("single", "ecmp")

#: Routing methods: the flat one-search-per-source engine, the hierarchical
#: overlay, or automatic selection between them.
ROUTING_METHODS = ("auto", "flat", "hierarchical")

#: Kernel backends (see :func:`repro.topology.compiled.resolve_backend`).
ROUTING_BACKENDS = ("auto", "python", "numpy")


@dataclass(frozen=True)
class RoutingOptions:
    """Validated routing switches shared by every routing entry point.

    Attributes:
        weight: ``"length"`` or ``"hops"`` (``None`` = the library
            default, ``"length"``).
        mode: ``"single"`` or ``"ecmp"`` flow splitting.
        method: ``"auto"``, ``"flat"``, or ``"hierarchical"``.
        backend: ``"auto"``, ``"python"``, or ``"numpy"``.

    Validation runs at construction; every error names the bad field, so a
    typo'd kwarg fails loudly at the call site instead of deep in a kernel.
    """

    weight: Optional[str] = None
    mode: str = "single"
    method: str = "auto"
    backend: str = "auto"

    def __post_init__(self) -> None:
        if self.weight is not None and self.weight not in ROUTING_WEIGHTS:
            raise ValueError(
                f"unknown routing weight {self.weight!r}: RoutingOptions.weight "
                f"must be None or one of {ROUTING_WEIGHTS}"
            )
        if self.mode not in ROUTING_MODES:
            raise ValueError(
                f"unknown routing mode {self.mode!r}: RoutingOptions.mode "
                f"must be one of {ROUTING_MODES}"
            )
        if self.method not in ROUTING_METHODS:
            raise ValueError(
                f"unknown routing method {self.method!r}: RoutingOptions.method "
                f"must be one of {ROUTING_METHODS}"
            )
        if self.backend not in ROUTING_BACKENDS:
            raise ValueError(
                f"unknown routing backend {self.backend!r}: RoutingOptions.backend "
                f"must be one of {ROUTING_BACKENDS}"
            )
