"""Randomized incremental buy-at-bulk algorithm (Meyerson–Munagala–Plotkin style).

Section 4.1–4.2 of the paper: "The best approximation algorithm known is the
randomized algorithm by Meyerson et al. [24] who provide a constant factor
bound on the quality of the solution independent of problem size", and "In a
preliminary investigation ... we have found that the approximation method in
[24] yields tree topologies with exponential node degree distributions."

The algorithm implemented here follows the sample-and-augment / cost-sharing
structure of "Designing Networks Incrementally" (Meyerson, Munagala, Plotkin,
FOCS 2001) adapted to the single-sink geometric setting used by the paper's
preliminary experiments:

1.  Customers arrive one at a time in random order.
2.  A customer with demand ``d`` is promoted to *hub* status for cable layer
    ``k`` with probability ``min(1, d / u_k)`` (higher layers aggregate more
    demand and are reached by fewer customers).  The core node is a hub at
    every layer.
3.  An arriving customer connects to the nearest point of the network at the
    highest layer it belongs to; the connection cost of intermediate segments
    is shared by the aggregated demand, which is exactly the mechanism that
    gives the constant-factor expected guarantee.

The output is always a tree rooted at the core — matching the paper's
observation — and the degree distribution of that tree is what experiment E2
measures.

Substitution note (documented in DESIGN.md): the original algorithm is
specified for arbitrary metrics with oblivious cost functions; our geometric
single-sink specialisation preserves the layered random-sampling structure
that drives both the approximation guarantee and the exponential-degree
behaviour reported in the paper.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..economics.cables import CableCatalog
from ..geography.regions import Region, bounding_region
from ..geography.spatial_index import SpatialGridIndex
from ..topology.graph import Topology
from .buyatbulk import (
    BuyAtBulkInstance,
    BuyAtBulkSolution,
    Customer,
    _base_topology,
    core_node_id,
    provision_solution,
    solve_direct_star,
    solve_greedy_aggregation,
    solve_mst_routing,
)


@dataclass
class MeyersonParameters:
    """Tunable knobs of the randomized incremental algorithm.

    Attributes:
        seed: Random seed controlling both arrival order and hub sampling.
        arrival_order: ``"random"`` (default, as in the algorithm), or
            ``"demand"`` (largest demand first) / ``"given"`` for ablations.
    """

    seed: Optional[int] = None
    arrival_order: str = "random"

    def __post_init__(self) -> None:
        if self.arrival_order not in ("random", "demand", "given"):
            raise ValueError(
                f"arrival_order must be 'random', 'demand', or 'given', got {self.arrival_order!r}"
            )


class _LayeredNetwork:
    """Internal growth state: which nodes are reachable at which cable layer.

    Nearest-member queries are answered by one
    :class:`~repro.geography.spatial_index.SpatialGridIndex` per cable layer
    (exact pruned argmin with ring expansion).  Each member is indexed under
    its per-layer insertion order, and the grid breaks distance ties toward
    the lowest id, so the query returns exactly what the seed's first-minimum
    linear scan returned; ``tests/oracles.py`` keeps that scan, and the
    equivalence tests patch it in over this class.
    """

    def __init__(self, region: Region) -> None:
        self._region = region
        #: node ids present at each layer (layer index into the catalog,
        #: small → large), in insertion order.
        self.members: Dict[int, List[Any]] = {}
        self._indexes: Dict[int, SpatialGridIndex] = {}

    def add(self, node_id: Any, location: Tuple[float, float], layers: Sequence[int]) -> None:
        for layer in layers:
            members = self.members.setdefault(layer, [])
            index = self._indexes.get(layer)
            if index is None:
                index = self._indexes[layer] = SpatialGridIndex(self._region)
            index.insert(len(members), location)
            members.append(node_id)

    def nearest_member(
        self, location: Tuple[float, float], layer: int
    ) -> Optional[Tuple[Any, float]]:
        candidates = self.members.get(layer, [])
        if not candidates:
            return None
        position, distance = self._indexes[layer].argmin(location, alpha=1.0)
        return candidates[position], distance


class MeyersonBuyAtBulk:
    """Randomized incremental solver for :class:`BuyAtBulkInstance`."""

    def __init__(
        self,
        instance: BuyAtBulkInstance,
        parameters: Optional[MeyersonParameters] = None,
    ) -> None:
        self.instance = instance
        self.parameters = parameters or MeyersonParameters()

    # ------------------------------------------------------------------
    def solve(self) -> BuyAtBulkSolution:
        """Run the incremental algorithm and return a provisioned tree solution."""
        params = self.parameters
        rng = random.Random(params.seed)
        catalog = self.instance.catalog
        num_layers = len(catalog)

        topology = _base_topology(self.instance, "buyatbulk-meyerson")
        # The grid's exactness requires every indexed and queried point inside
        # its region; the instance bounding box guarantees that regardless of
        # whether the instance carries an (optional, reporting-only) region.
        region = bounding_region(
            self.instance.customer_locations() + list(self.instance.core_locations),
            name="meyerson-instance",
        )
        network = _LayeredNetwork(region)
        all_layers = list(range(num_layers))
        for index, location in enumerate(self.instance.core_locations):
            network.add(core_node_id(index), location, all_layers)

        arrival = self._arrival_order(rng)
        hub_layers: Dict[Any, int] = {}
        for customer in arrival:
            highest_layer = self._sample_hub_layer(customer, catalog, rng)
            hub_layers[customer.customer_id] = highest_layer
            self._connect_customer(topology, network, customer, highest_layer)
            # The customer becomes part of the network at every layer up to its own.
            network.add(
                customer.customer_id, customer.location, list(range(highest_layer + 1))
            )

        topology.metadata["model"] = "meyerson-buy-at-bulk"
        topology.metadata["hub_layers"] = {
            str(k): v for k, v in sorted(hub_layers.items(), key=lambda kv: str(kv[0]))
        }
        provision_solution(topology, self.instance)
        return BuyAtBulkSolution(
            instance=self.instance, topology=topology, algorithm="meyerson-incremental"
        )

    # ------------------------------------------------------------------
    def _arrival_order(self, rng: random.Random) -> List[Customer]:
        customers = list(self.instance.customers)
        order = self.parameters.arrival_order
        if order == "random":
            rng.shuffle(customers)
        elif order == "demand":
            customers.sort(key=lambda c: c.demand, reverse=True)
        return customers

    def _sample_hub_layer(
        self, customer: Customer, catalog: CableCatalog, rng: random.Random
    ) -> int:
        """Highest cable layer at which this customer acts as an aggregation hub.

        Layer 0 (the smallest cable) always accepts the customer.  For each
        larger layer ``k`` the customer is promoted with probability
        ``min(1, demand / u_k)``; promotion stops at the first failure,
        mirroring the nested random sampling of the original algorithm.
        """
        layer = 0
        for k in range(1, len(catalog)):
            capacity = catalog.cables[k].capacity
            probability = min(1.0, customer.demand / capacity)
            if rng.random() < probability:
                layer = k
            else:
                break
        return layer

    def _connect_customer(
        self,
        topology: Topology,
        network: _LayeredNetwork,
        customer: Customer,
        highest_layer: int,
    ) -> None:
        """Attach the customer to the nearest network member at its highest layer.

        If that layer has no members yet (other than the core, which is in
        every layer) the search simply falls back to progressively lower
        layers, which always succeeds because layer 0 contains everything.
        """
        target = None
        for layer in range(highest_layer, -1, -1):
            found = network.nearest_member(customer.location, layer)
            if found is not None:
                target = found[0]
                break
        if target is None:
            raise RuntimeError("no attachment point found; core nodes missing from network")
        topology.add_link(customer.customer_id, target)


def solve_meyerson(instance: BuyAtBulkInstance, seed: Optional[int] = None) -> BuyAtBulkSolution:
    """Convenience wrapper around :class:`MeyersonBuyAtBulk`."""
    return MeyersonBuyAtBulk(instance, MeyersonParameters(seed=seed)).solve()


#: The buy-at-bulk solvers by name: the randomized incremental algorithm and
#: the three deterministic baselines of :mod:`repro.core.buyatbulk`.
BUY_AT_BULK_ALGORITHMS = ("meyerson", "greedy", "mst", "star")


def solve_buy_at_bulk(
    instance: BuyAtBulkInstance, algorithm: str, seed: Optional[int] = None
) -> BuyAtBulkSolution:
    """Solve ``instance`` with the named algorithm of :data:`BUY_AT_BULK_ALGORITHMS`.

    Only ``"meyerson"`` is randomized and reads ``seed``.
    """
    if algorithm == "meyerson":
        return solve_meyerson(instance, seed=seed)
    if algorithm == "greedy":
        return solve_greedy_aggregation(instance)
    if algorithm == "mst":
        return solve_mst_routing(instance)
    if algorithm == "star":
        return solve_direct_star(instance)
    raise ValueError(
        f"unknown buy-at-bulk algorithm {algorithm!r}; expected one of {BUY_AT_BULK_ALGORITHMS}"
    )


def best_of_runs(
    instance: BuyAtBulkInstance, num_runs: int = 5, seed: Optional[int] = None
) -> BuyAtBulkSolution:
    """Run the randomized algorithm several times and keep the cheapest solution.

    Repetition is the standard way to sharpen a randomized constant-factor
    guarantee in practice; experiment E8 reports both single-run and
    best-of-5 quality.
    """
    if num_runs < 1:
        raise ValueError("num_runs must be >= 1")
    base = seed if seed is not None else 0
    best: Optional[BuyAtBulkSolution] = None
    for run in range(num_runs):
        solution = solve_meyerson(instance, seed=base + run)
        if best is None or solution.total_cost() < best.total_cost():
            best = solution
    assert best is not None
    return best
