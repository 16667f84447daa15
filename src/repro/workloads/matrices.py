"""Demand matrix builders for the benchmark workloads."""

from __future__ import annotations

from typing import Sequence

from ..geography.demand import DemandMatrix, gravity_demand
from ..geography.population import City


def hub_and_spoke_matrix(
    cities: Sequence[City], hub_name: str, total_volume: float = 10_000.0
) -> DemandMatrix:
    """All demand between one hub city and every other city.

    Models an extreme content-concentration workload (all traffic to/from one
    data-center city); used to stress the backbone provisioning ablation.
    """
    names = [c.name for c in cities]
    if hub_name not in names:
        raise ValueError(f"hub {hub_name!r} is not among the provided cities")
    if len(names) < 2:
        return DemandMatrix(endpoints=names)
    hub = names.index(hub_name)
    spokes = [i for i in range(len(names)) if i != hub]
    per_pair = total_volume / len(spokes)
    return DemandMatrix.from_arrays(names, [hub] * len(spokes), spokes, [per_pair] * len(spokes))


def hub_skewed_matrix(
    cities: Sequence[City],
    hub_name: str,
    hub_fraction: float = 0.5,
    total_volume: float = 10_000.0,
    distance_exponent: float = 1.0,
) -> DemandMatrix:
    """A gravity matrix with an extra hub-concentrated traffic component.

    ``hub_fraction`` of the volume flows hub-and-spoke (content concentrated
    in one data-center city), the rest follows the gravity model — the
    "hub-skewed" demand family of the E11 traffic sweep.  Built by merging
    the two components' pair columns, so no per-pair mutation API is touched.
    """
    if not 0 <= hub_fraction <= 1:
        raise ValueError("hub_fraction must be in [0, 1]")
    names = [c.name for c in cities]
    gravity = gravity_demand(
        cities,
        total_volume=total_volume * (1.0 - hub_fraction),
        distance_exponent=distance_exponent,
    )
    hub = hub_and_spoke_matrix(cities, hub_name, total_volume=total_volume * hub_fraction)
    index = {name: i for i, name in enumerate(names)}
    merged = {}
    for component in (gravity, hub):
        for a, b, volume in component.pairs():
            key = (index[a], index[b])
            merged[key] = merged.get(key, 0.0) + volume
    pairs = list(merged.items())
    return DemandMatrix.from_arrays(
        names,
        [i for (i, _), _ in pairs],
        [j for (_, j), _ in pairs],
        [volume for _, volume in pairs],
    )
