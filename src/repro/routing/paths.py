"""Named link-weight functions for routing over annotated topologies.

Routing is a substrate of the evaluation, not a contribution of the paper:
backbone provisioning (E4) and utilization analysis need demand routed over
shortest paths so that link loads (and hence cable choices and costs) can be
computed.  Every routing entry point names its metric (``"length"``,
``"hops"`` or ``"inverse-capacity"``); :func:`resolve_weight` maps that name
to the per-link weight function the compiled kernels evaluate.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..topology.compiled import default_link_weight
from ..topology.link import Link


#: Weight functions selectable by name.
WEIGHT_FUNCTIONS: Dict[str, Callable[[Link], float]] = {
    "length": default_link_weight,
    "hops": lambda link: 1.0,
    "inverse-capacity": lambda link: (1.0 / link.capacity if link.capacity else 1.0),
}


def resolve_weight(weight: Optional[str]) -> Callable[[Link], float]:
    """Look up a weight function by name (``None`` → length-based)."""
    if weight is None:
        return WEIGHT_FUNCTIONS["length"]
    if weight not in WEIGHT_FUNCTIONS:
        raise KeyError(f"unknown weight {weight!r}; available: {sorted(WEIGHT_FUNCTIONS)}")
    return WEIGHT_FUNCTIONS[weight]
