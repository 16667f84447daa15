"""Economic substrate: cable catalogs and provisioning.

The cost and profit formulations that price a design from a catalog live in
:mod:`repro.core.objectives`.
"""

from .cables import (
    CableCatalog,
    CableType,
    default_catalog,
    linear_catalog,
)
from .provisioning import provision_topology

__all__ = [
    "CableCatalog",
    "CableType",
    "default_catalog",
    "linear_catalog",
    "provision_topology",
]
