"""Geographic substrate: points, regions, population centers, traffic demand."""

from .points import clustered_points, euclidean, random_points
from .regions import Region, bounding_region, metro_region, national_region, unit_square
from .spatial_index import GridBuckets, SpatialGridIndex
from .population import (
    City,
    PopulationModel,
    synthetic_population,
    zipf_populations,
)
from .demand import DemandMatrix, gravity_demand, uniform_demand

__all__ = [
    "bounding_region",
    "clustered_points",
    "euclidean",
    "random_points",
    "Region",
    "metro_region",
    "national_region",
    "unit_square",
    "GridBuckets",
    "SpatialGridIndex",
    "City",
    "PopulationModel",
    "synthetic_population",
    "zipf_populations",
    "DemandMatrix",
    "gravity_demand",
    "uniform_demand",
]
