"""Reference city workloads used across the examples and benchmarks.

The paper's demand model is "population centers dispersed over a geographic
region" (Section 2.2).  We ship a fixed, US-like reference city set (names are
fictional; populations follow Zipf's law and placements roughly mimic coastal
concentration) so examples and benchmarks are reproducible without any data
download, plus helpers to derive metro customer sets from a city.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Tuple

from ..core.buyatbulk import Customer
from ..geography.population import City, PopulationModel, synthetic_population
from ..geography.regions import Region, metro_region, national_region


#: Fictional national reference cities: (name, x_km, y_km, population, is_major).
#: Coordinates live in the 4200 km x 2500 km national region; the layout mimics
#: two dense coasts and a sparser interior.
REFERENCE_CITIES: List[Tuple[str, float, float, float, bool]] = [
    ("newport", 3900.0, 1700.0, 8_400_000.0, True),
    ("angelton", 300.0, 900.0, 4_000_000.0, True),
    ("lakeside", 2600.0, 1900.0, 2_700_000.0, True),
    ("bayview", 150.0, 1500.0, 880_000.0, True),
    ("gulfport", 2500.0, 500.0, 2_300_000.0, True),
    ("plainsburg", 2300.0, 1300.0, 700_000.0, False),
    ("highmesa", 1200.0, 1100.0, 720_000.0, False),
    ("rivercross", 2900.0, 1200.0, 690_000.0, False),
    ("stonebridge", 3300.0, 1400.0, 1_600_000.0, True),
    ("northgate", 2700.0, 2200.0, 430_000.0, False),
    ("eastharbor", 3950.0, 1500.0, 1_500_000.0, True),
    ("capital", 3700.0, 1350.0, 700_000.0, True),
    ("southpine", 3600.0, 300.0, 450_000.0, False),
    ("westfall", 600.0, 1900.0, 750_000.0, False),
    ("dryridge", 900.0, 700.0, 1_700_000.0, False),
    ("twinforks", 2100.0, 1800.0, 430_000.0, False),
    ("ironcity", 3100.0, 1600.0, 300_000.0, False),
    ("saltflat", 1500.0, 1500.0, 200_000.0, False),
    ("palmcove", 3500.0, 150.0, 440_000.0, False),
    ("frontier", 1900.0, 2100.0, 120_000.0, False),
]


def reference_population() -> PopulationModel:
    """The fixed 20-city national reference population."""
    region = national_region()
    cities = [
        City(name=name, location=(x, y), population=population, is_major=major)
        for name, x, y, population, major in REFERENCE_CITIES
    ]
    return PopulationModel(region=region, cities=cities)


def scaled_population(num_cities: int, seed: int = 0) -> PopulationModel:
    """A synthetic national population with an arbitrary number of cities.

    For city counts up to the reference set size, the reference cities are
    used directly (largest first) so small experiments remain deterministic;
    beyond that a seeded synthetic population is generated.
    """
    if num_cities < 1:
        raise ValueError("num_cities must be >= 1")
    if num_cities <= len(REFERENCE_CITIES):
        base = reference_population()
        cities = base.largest(num_cities)
        return PopulationModel(region=base.region, cities=cities)
    return synthetic_population(national_region(), num_cities, seed=seed)


def metro_customers(
    num_customers: int,
    seed: int = 0,
    clustered: bool = True,
    region: Optional[Region] = None,
    demand_range: Tuple[float, float] = (1.0, 10.0),
) -> Tuple[List[Customer], Region]:
    """Generate a reproducible metro customer set (for E2/E3 workloads).

    Returns the customers and the metro region they live in.
    """
    if num_customers < 1:
        raise ValueError("num_customers must be >= 1")
    low, high = demand_range
    if not 0 <= low <= high < math.inf:
        raise ValueError(f"demand_range must satisfy 0 <= low <= high < inf, got {demand_range}")
    rng = random.Random(seed)
    region = region or metro_region()
    if clustered:
        locations = region.sample_clustered(num_customers, max(3, num_customers // 40), rng)
    else:
        locations = region.sample_uniform(num_customers, rng)
    customers = [
        Customer(
            customer_id=f"cust{i}",
            location=locations[i],
            demand=rng.uniform(low, high),
        )
        for i in range(num_customers)
    ]
    return customers, region
