"""Reference workloads: city sets and demand matrices."""

from .cities import (
    REFERENCE_CITIES,
    metro_customers,
    reference_population,
    scaled_population,
)
from .matrices import (
    hub_and_spoke_matrix,
    hub_skewed_matrix,
)

__all__ = [
    "REFERENCE_CITIES",
    "metro_customers",
    "reference_population",
    "scaled_population",
    "hub_and_spoke_matrix",
    "hub_skewed_matrix",
]
