"""Traffic demand models.

The paper (Section 2.2) identifies traffic demand as "one of the key inputs"
to the optimization formulation and proposes deriving it from population
centers dispersed over a geographic region.  This module implements the
standard gravity model — demand between two cities proportional to the
product of their populations divided by a power of their distance — plus a
uniform model used as an ablation baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from .points import euclidean
from .population import City


@dataclass
class DemandMatrix:
    """A symmetric traffic demand matrix keyed by endpoint names.

    Demands are stored once per unordered pair; :meth:`demand` is symmetric.
    Bulk construction goes through :meth:`from_arrays` (index/volume columns,
    one validation pass) and routing consumes the matrix through
    :meth:`compile`, which resolves endpoint names against a topology exactly
    once.
    """

    endpoints: List[str]
    _demands: Dict[Tuple[str, str], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.endpoints) != len(set(self.endpoints)):
            raise ValueError("endpoint names must be unique")
        self._index = set(self.endpoints)

    @staticmethod
    def _key(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    @classmethod
    def from_arrays(
        cls,
        endpoints: Sequence[str],
        sources: Sequence[int],
        targets: Sequence[int],
        volumes: Sequence[float],
    ) -> "DemandMatrix":
        """Bulk constructor from parallel index/volume columns.

        ``sources``/``targets`` are indices into ``endpoints`` and
        ``volumes`` the matching demands — the natural output shape of the
        array-native builders (:func:`gravity_demand`, :func:`uniform_demand`
        and the :mod:`repro.workloads.matrices` constructors).  Validation
        runs once over the columns instead of once per ``set_demand`` call,
        and no intermediate pair-keyed dictionary is built: an index outside
        ``endpoints`` (negative ones included) and a NaN, infinite or
        negative volume raise :class:`ValueError` naming the column entry.
        """
        names = list(endpoints)
        matrix = cls(endpoints=names)
        if not (len(sources) == len(targets) == len(volumes)):
            raise ValueError("sources, targets, and volumes must align")
        key = cls._key
        demands = matrix._demands
        n = len(names)
        for k, (i, j, volume) in enumerate(zip(sources, targets, volumes)):
            if not 0 <= i < n:
                raise ValueError(f"sources[{k}] = {i} is not an index into {n} endpoints")
            if not 0 <= j < n:
                raise ValueError(f"targets[{k}] = {j} is not an index into {n} endpoints")
            if i == j:
                raise ValueError("self-demand is not allowed")
            if not 0 <= volume < inf:
                raise ValueError(f"volumes[{k}] must be finite and non-negative, got {volume}")
            demands[key(names[i], names[j])] = volume
        return matrix

    def compile(self, topology: Any, endpoint_map: Optional[Dict[str, Any]] = None):
        """Compile this matrix against a topology's compiled graph.

        Returns a :class:`~repro.routing.engine.CompiledDemand` — int-indexed
        source/target/volume columns aligned with ``topology.compiled()`` —
        ready for :func:`~repro.routing.engine.route_demand`.
        """
        from ..routing.engine import compile_demand

        return compile_demand(topology, self, endpoint_map)

    def set_demand(self, a: str, b: str, volume: float) -> None:
        """Set the demand between two distinct endpoints.

        ``volume`` must be finite and non-negative: a NaN would be stored and
        then silently dropped by :meth:`pairs`, and an infinite one would
        load every edge of its path with ``inf``.
        """
        if a == b:
            raise ValueError("self-demand is not allowed")
        if a not in self._index or b not in self._index:
            raise KeyError(f"unknown endpoint in pair ({a!r}, {b!r})")
        if not 0 <= volume < inf:
            raise ValueError(f"volume must be finite and non-negative, got {volume}")
        self._demands[self._key(a, b)] = volume

    def demand(self, a: str, b: str) -> float:
        """Demand between two endpoints (0 if never set)."""
        if a == b:
            return 0.0
        return self._demands.get(self._key(a, b), 0.0)

    def pairs(self) -> Iterator[Tuple[str, str, float]]:
        """Iterate over ``(a, b, volume)`` for all non-zero pairs."""
        for (a, b), volume in self._demands.items():
            if volume > 0:
                yield a, b, volume

    def total(self) -> float:
        """Total demand over all pairs."""
        return sum(v for v in self._demands.values() if v > 0)

    def outgoing(self, endpoint: str) -> float:
        """Total demand involving ``endpoint``."""
        if endpoint not in self._index:
            raise KeyError(f"unknown endpoint {endpoint!r}")
        return sum(v for (a, b), v in self._demands.items() if endpoint in (a, b))

    def top_pairs(self, k: int) -> List[Tuple[str, str, float]]:
        """The ``k`` largest demand pairs, largest first."""
        ranked = sorted(self.pairs(), key=lambda item: item[2], reverse=True)
        return ranked[:k]

    def scaled(self, factor: float) -> "DemandMatrix":
        """Return a copy with every demand multiplied by a finite ``factor >= 0``."""
        if not 0 <= factor < inf:
            raise ValueError(f"factor must be finite and non-negative, got {factor}")
        scaled = DemandMatrix(endpoints=list(self.endpoints))
        for a, b, volume in self.pairs():
            scaled.set_demand(a, b, volume * factor)
        return scaled


def gravity_demand(
    cities: Sequence[City],
    total_volume: float = 1000.0,
    distance_exponent: float = 1.0,
    min_distance: Optional[float] = None,
) -> DemandMatrix:
    """Build a gravity-model demand matrix over a set of cities.

    The raw demand between cities ``i`` and ``j`` is
    ``population_i * population_j / distance(i, j)**distance_exponent``; the
    matrix is then normalized so all pairwise demands sum to ``total_volume``.

    Args:
        cities: Population centers.
        total_volume: Total traffic volume to distribute over all pairs.
        distance_exponent: How strongly distance suppresses demand (0 makes
            demand purely population-product driven).
        min_distance: Lower bound on the distance used in the denominator,
            protecting against co-located cities.  Defaults to 1% of the
            largest pairwise distance.
    """
    if len(cities) < 2:
        raise ValueError("gravity demand requires at least two cities")
    if total_volume < 0:
        raise ValueError("total_volume must be non-negative")
    names = [c.name for c in cities]

    # Array-native construction: flat source/target/distance columns in i<j
    # order, distances computed once (the dict-building implementation walked
    # the city pairs twice and round-tripped volumes through a tuple-keyed
    # dictionary).  The arithmetic and its order are unchanged, so the
    # resulting matrix is bit-identical to the historical builder.
    n = len(cities)
    locations = [c.location for c in cities]
    populations = [c.population for c in cities]
    sources: List[int] = []
    targets: List[int] = []
    distances: List[float] = []
    for i in range(n):
        location_i = locations[i]
        for j in range(i + 1, n):
            sources.append(i)
            targets.append(j)
            distances.append(euclidean(location_i, locations[j]))
    max_distance = max(distances) if distances else 1.0
    floor = min_distance if min_distance is not None else 0.01 * max(max_distance, 1e-12)
    floor = max(floor, 1e-12)

    raw = [
        populations[i] * populations[j] / (max(distance, floor) ** distance_exponent)
        for i, j, distance in zip(sources, targets, distances)
    ]
    total_raw = sum(raw)
    if total_raw <= 0:
        return DemandMatrix(endpoints=names)
    volumes = [total_volume * value / total_raw for value in raw]
    return DemandMatrix.from_arrays(names, sources, targets, volumes)


def uniform_demand(names: Sequence[str], total_volume: float = 1000.0) -> DemandMatrix:
    """Uniform all-pairs demand (ablation baseline for the gravity model)."""
    names = list(names)
    if len(names) < 2:
        raise ValueError("uniform demand requires at least two endpoints")
    if total_volume < 0:
        raise ValueError("total_volume must be non-negative")
    n = len(names)
    num_pairs = n * (n - 1) // 2
    per_pair = total_volume / num_pairs
    sources = [i for i in range(n) for _ in range(i + 1, n)]
    targets = [j for i in range(n) for j in range(i + 1, n)]
    return DemandMatrix.from_arrays(names, sources, targets, [per_pair] * num_pairs)
