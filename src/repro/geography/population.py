"""Population centers (cities) and synthetic national populations.

Section 2.2 of the paper proposes deriving ISP topology from "population
centers dispersed over a geographic region".  This module models cities with
Zipf-distributed populations placed in a region, which feed both the traffic
demand model (:mod:`repro.geography.demand`) and the ISP generator
(:mod:`repro.core.isp`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .points import euclidean
from .regions import Region


@dataclass
class City:
    """A population center.

    Attributes:
        name: City name (unique within a :class:`PopulationModel`).
        location: ``(x, y)`` coordinates inside the region.
        population: Number of inhabitants (drives traffic demand).
        is_major: Whether the city counts as a "big city" (peering/backbone
            candidate; paper Section 2.1).
    """

    name: str
    location: Tuple[float, float]
    population: float
    is_major: bool = False

    def __post_init__(self) -> None:
        if self.population <= 0:
            raise ValueError(f"population must be positive, got {self.population}")


@dataclass
class PopulationModel:
    """A set of cities in a region, with population-proportional sampling."""

    region: Region
    cities: List[City] = field(default_factory=list)

    def __post_init__(self) -> None:
        names = [c.name for c in self.cities]
        if len(names) != len(set(names)):
            raise ValueError("city names must be unique")

    @property
    def total_population(self) -> float:
        """Sum of city populations."""
        return sum(c.population for c in self.cities)

    def city(self, name: str) -> City:
        """Look up a city by name."""
        for c in self.cities:
            if c.name == name:
                return c
        raise KeyError(f"no city named {name!r}")

    def largest(self, k: int) -> List[City]:
        """The ``k`` most populous cities, largest first."""
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        return sorted(self.cities, key=lambda c: c.population, reverse=True)[:k]

    def sample_city(self, rng: random.Random) -> City:
        """Sample a city with probability proportional to its population."""
        if not self.cities:
            raise ValueError("population model has no cities")
        total = self.total_population
        target = rng.random() * total
        cumulative = 0.0
        for c in self.cities:
            cumulative += c.population
            if target <= cumulative:
                return c
        return self.cities[-1]


def zipf_populations(
    num_cities: int, largest_population: float = 8_000_000.0, exponent: float = 1.0
) -> List[float]:
    """Zipf's-law city sizes: the k-th largest city has population ~ largest / k^exponent.

    Zipf's law for city sizes is the standard empirical model of urban
    populations and underpins the paper's observation that "most customers
    reside in the big cities".
    """
    if num_cities < 1:
        raise ValueError(f"num_cities must be >= 1, got {num_cities}")
    if largest_population <= 0:
        raise ValueError("largest_population must be positive")
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    return [largest_population / (k**exponent) for k in range(1, num_cities + 1)]


def synthetic_population(
    region: Region,
    num_cities: int,
    seed: Optional[int] = None,
    largest_population: float = 8_000_000.0,
    zipf_exponent: float = 1.0,
    major_fraction: float = 0.25,
    min_separation_fraction: float = 0.03,
) -> PopulationModel:
    """Generate a synthetic national population: Zipf sizes, scattered locations.

    Args:
        region: Region in which the cities are placed.
        num_cities: Number of cities to create.
        seed: Random seed (``None`` for nondeterministic placement).
        largest_population: Population of the largest city.
        zipf_exponent: Zipf exponent for the rank-size rule.
        major_fraction: Fraction of the largest cities flagged as major.
        min_separation_fraction: Minimum pairwise distance between cities as a
            fraction of the region diagonal (keeps cities from overlapping).

    Returns:
        A :class:`PopulationModel` with ``num_cities`` cities named
        ``"city00"``, ``"city01"``, ... in decreasing population order.
    """
    rng = random.Random(seed)
    populations = zipf_populations(num_cities, largest_population, zipf_exponent)
    min_separation = min_separation_fraction * region.diagonal
    locations: List[Tuple[float, float]] = []
    attempts_per_city = 200
    for _ in range(num_cities):
        placed = None
        for _ in range(attempts_per_city):
            candidate = region.sample_uniform(1, rng)[0]
            if all(euclidean(candidate, other) >= min_separation for other in locations):
                placed = candidate
                break
        if placed is None:
            placed = region.sample_uniform(1, rng)[0]
        locations.append(placed)

    num_major = max(1, int(round(major_fraction * num_cities)))
    width = max(2, len(str(num_cities - 1)))
    cities = [
        City(
            name=f"city{index:0{width}d}",
            location=locations[index],
            population=populations[index],
            is_major=index < num_major,
        )
        for index in range(num_cities)
    ]
    return PopulationModel(region=region, cities=cities)
