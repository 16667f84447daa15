"""Economic substrate: cable catalogs, cost and profit models, provisioning."""

from .cables import (
    CableCatalog,
    CableType,
    default_catalog,
    linear_catalog,
)
from .cost_model import DEFAULT_NODE_COSTS, CostBreakdown, CostModel
from .profit_model import RevenueModel
from .provisioning import (
    ProvisioningReport,
    provision_topology,
)

__all__ = [
    "CableCatalog",
    "CableType",
    "default_catalog",
    "linear_catalog",
    "DEFAULT_NODE_COSTS",
    "CostBreakdown",
    "CostModel",
    "RevenueModel",
    "ProvisioningReport",
    "provision_topology",
]
