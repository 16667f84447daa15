"""Facility location heuristics for concentrator and PoP placement.

Classic access-network design formulations "incorporate ... the cost of
installing additional equipment, such as concentrators" (paper Section 4).
Placing concentrators (or metro PoPs) is an uncapacitated facility location /
k-median problem; this module provides the local-search (swap) k-median
heuristic used by the access designer and by the ISP generator.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..geography.points import euclidean


@dataclass
class FacilitySolution:
    """Result of a facility-location computation.

    Attributes:
        facilities: Indices (into the candidate list) of the opened facilities.
        assignment: For each client index, the index of its assigned facility.
        connection_cost: Total weighted client-to-facility distance.
    """

    facilities: List[int]
    assignment: Dict[int, int]
    connection_cost: float


def _client_weights(weights: Optional[Sequence[float]], num_clients: int) -> List[float]:
    """Per-client weights (default 1 each), rejected unless finite and >= 0."""
    if weights is None:
        return [1.0] * num_clients
    weights = list(weights)
    if len(weights) != num_clients:
        raise ValueError("weights must match clients in length")
    for weight in weights:
        if not (math.isfinite(weight) and weight >= 0):
            raise ValueError(f"weights must be finite and non-negative, got {weight!r}")
    return weights


def _check_points(name: str, points: Sequence[Tuple[float, float]]) -> None:
    """Reject any point with a NaN or infinite coordinate, naming the argument."""
    for point in points:
        if not (math.isfinite(point[0]) and math.isfinite(point[1])):
            raise ValueError(f"{name} must have finite coordinates, got {point!r}")


def _assign_clients(
    clients: Sequence[Tuple[float, float]],
    weights: Sequence[float],
    candidates: Sequence[Tuple[float, float]],
    open_facilities: Sequence[int],
) -> Tuple[Dict[int, int], float]:
    """Assign every client to its nearest open facility; return cost too.

    Equidistant facilities go to the one listed first in ``open_facilities``.
    """
    assignment: Dict[int, int] = {}
    connection_cost = 0.0
    for client_index, client in enumerate(clients):
        best_facility = None
        best_distance = float("inf")
        for facility_index in open_facilities:
            distance = euclidean(client, candidates[facility_index])
            if distance < best_distance:
                best_distance = distance
                best_facility = facility_index
        assignment[client_index] = best_facility
        connection_cost += weights[client_index] * best_distance
    return assignment, connection_cost


def k_median(
    clients: Sequence[Tuple[float, float]],
    candidates: Sequence[Tuple[float, float]],
    k: int,
    weights: Optional[Sequence[float]] = None,
    rng: Optional[random.Random] = None,
    max_iterations: int = 100,
) -> FacilitySolution:
    """k-median via single-swap local search.

    Opens exactly ``k`` facilities minimizing the total weighted connection
    distance.  Starts from a greedy farthest-point seeding and applies
    single-facility swaps until no swap improves the cost (or
    ``max_iterations`` swaps are accepted); single-swap local search is a 5-
    approximation for metric k-median.  Each pass tries ``out`` in
    open-facility order and ``in`` in ascending order, and accepts the first
    swap that lowers the cost by more than ``1e-12``.

    Swaps are priced by the fast swap of Resende & Werneck (2007): every
    client-to-candidate distance is computed once into one ``array('d')``
    column per candidate, and a table holds each client's nearest open
    facility with its distance and the second-nearest distance, rebuilt only
    when a swap is accepted.  Closing ``out`` leaves a client the second
    distance if ``out`` was its nearest and the first otherwise; opening
    ``in`` offers ``column[in]``.  A trial is then O(n): the smaller of the
    two, times the weight, added from ``0.0`` in client order, which is the
    same sequence of float operations a full reassignment performs, so the
    facilities, assignment and cost bits are those of reassigning every
    client per trial.

    Coordinates must be finite, ``weights`` (default 1 per client) finite
    and non-negative, and ``max_iterations`` non-negative.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(candidates):
        raise ValueError(f"k={k} exceeds the number of candidate facilities {len(candidates)}")
    if not clients:
        raise ValueError("at least one client is required")
    if max_iterations < 0:
        raise ValueError(f"max_iterations must be non-negative, got {max_iterations!r}")
    _check_points("clients", clients)
    _check_points("candidates", candidates)
    weights = _client_weights(weights, len(clients))
    rng = rng or random.Random(0)

    # Farthest-point seeding for a spread-out initial solution.
    open_facilities = [rng.randrange(len(candidates))]
    while len(open_facilities) < k:
        def distance_to_open(index: int) -> float:
            return min(euclidean(candidates[index], candidates[f]) for f in open_facilities)

        farthest = max(
            (i for i in range(len(candidates)) if i not in open_facilities),
            key=distance_to_open,
        )
        open_facilities.append(farthest)

    _, current_cost = _assign_clients(clients, weights, candidates, open_facilities)

    columns = [
        array("d", [euclidean(client, candidate) for client in clients])
        for candidate in candidates
    ]
    for _ in range(max_iterations):
        swap = _first_improving_swap(columns, weights, open_facilities, current_cost - 1e-12)
        if swap is None:
            break
        out_index, in_index, current_cost = swap
        open_facilities = [f for f in open_facilities if f != out_index] + [in_index]

    assignment, connection_cost = _assign_clients(clients, weights, candidates, open_facilities)
    return FacilitySolution(
        facilities=sorted(open_facilities),
        assignment=assignment,
        connection_cost=connection_cost,
    )


def _first_improving_swap(
    columns: Sequence[array],
    weights: Sequence[float],
    open_facilities: Sequence[int],
    limit: float,
) -> Optional[Tuple[int, int, float]]:
    """The first swap ``(out, in, cost)`` whose connection cost is below ``limit``.

    ``out`` runs over ``open_facilities`` in order and ``in`` over the closed
    candidates in ascending order; ``None`` when no swap gets below ``limit``.
    """
    # Each client's nearest open facility, its distance, and the distance to
    # the next one (equal on a tie, inf when only one facility is open).
    num_clients = len(weights)
    nearest: List[Optional[int]] = [None] * num_clients
    first = [math.inf] * num_clients
    second = [math.inf] * num_clients
    for facility in open_facilities:
        for client, distance in enumerate(columns[facility]):
            if distance < first[client]:
                second[client] = first[client]
                first[client] = distance
                nearest[client] = facility
            elif distance < second[client]:
                second[client] = distance

    for out_index in open_facilities:
        # What each client keeps once ``out_index`` closes.
        kept = [s if f == out_index else d for f, d, s in zip(nearest, first, second)]
        for in_index, column in enumerate(columns):
            if in_index in open_facilities:
                continue
            cost = 0.0
            for weight, distance, added in zip(weights, kept, column):
                cost += weight * (added if added < distance else distance)
            if cost < limit:
                return out_index, in_index, cost
    return None


def choose_concentrator_count(
    num_clients: int, clients_per_concentrator: int = 24
) -> int:
    """Rule-of-thumb number of concentrators for a client population.

    Mirrors how access planners size concentrator counts from port densities;
    always at least 1.
    """
    if num_clients < 0:
        raise ValueError("num_clients must be non-negative")
    if clients_per_concentrator < 1:
        raise ValueError("clients_per_concentrator must be >= 1")
    return max(1, (num_clients + clients_per_concentrator - 1) // clients_per_concentrator)
