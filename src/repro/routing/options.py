"""Normalized routing options: one vocabulary for every routing entry point.

``route_demand``, the hierarchical overlay, the temporal engine, and the
assignment boundary all take the same three switches — ``mode`` (flow
splitting), ``method`` (flat vs hierarchical), ``backend`` (python vs numpy)
— plus a named ``weight``.  Historically each entry point re-validated its
own kwargs with slightly different spellings; :class:`RoutingOptions` is the
single place the vocabulary is defined and validated, and every error names
the offending field.

The dataclass is frozen so an options object can be shared across routing
calls (the E11/E12/E13 suites build one per sweep point).  ``None`` is not a
valid ``mode``/``method``/``backend`` value here — entry points map their
legacy ``None`` defaults through :meth:`RoutingOptions.normalize`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["RoutingOptions", "ROUTING_MODES", "ROUTING_METHODS", "ROUTING_BACKENDS"]

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
        weight: Named weight function for path selection (``None`` = the
            library default, physical length).
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
        if self.weight is not None and not isinstance(self.weight, str):
            raise ValueError(
                f"RoutingOptions.weight must be a weight name or None, got {self.weight!r}"
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

    @classmethod
    def normalize(
        cls,
        options: Optional["RoutingOptions"] = None,
        *,
        weight: Optional[str] = None,
        mode: Optional[str] = None,
        method: Optional[str] = None,
        backend: Optional[str] = None,
    ) -> "RoutingOptions":
        """Merge an explicit options object with legacy per-call kwargs.

        Passing both ``options`` and any individual kwarg is an error — the
        caller's intent would be ambiguous.  Legacy ``None`` kwargs map to
        the field defaults (``mode="single"``, ``method="auto"``,
        ``backend="auto"``).
        """
        if options is not None:
            if not isinstance(options, cls):
                raise TypeError(f"options must be a RoutingOptions, got {type(options).__name__}")
            extras = [
                name
                for name, value in (
                    ("weight", weight),
                    ("mode", mode),
                    ("method", method),
                    ("backend", backend),
                )
                if value is not None
            ]
            if extras:
                raise ValueError(
                    f"pass routing switches via options= or as individual "
                    f"kwargs, not both (got options= and {', '.join(extras)})"
                )
            return options
        return cls(
            weight=weight,
            mode="single" if mode is None else mode,
            method="auto" if method is None else method,
            backend="auto" if backend is None else backend,
        )
