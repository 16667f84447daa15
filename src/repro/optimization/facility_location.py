"""Facility location heuristics for concentrator and PoP placement.

Classic access-network design formulations "incorporate ... the cost of
installing additional equipment, such as concentrators" (paper Section 4).
Placing concentrators (or metro PoPs) is an uncapacitated facility location /
k-median problem; this module provides the standard greedy and local-search
(swap) heuristics used by the access designer and by the ISP generator.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..geography.points import euclidean


@dataclass
class FacilitySolution:
    """Result of a facility-location computation.

    Attributes:
        facilities: Indices (into the candidate list) of the opened facilities.
        assignment: For each client index, the index of its assigned facility.
        opening_cost: Total cost of opening the chosen facilities.
        connection_cost: Total weighted client-to-facility distance.
    """

    facilities: List[int]
    assignment: Dict[int, int]
    opening_cost: float
    connection_cost: float

    @property
    def total_cost(self) -> float:
        """Opening plus connection cost."""
        return self.opening_cost + self.connection_cost

    def clients_of(self, facility: int) -> List[int]:
        """Client indices assigned to a given facility."""
        return [client for client, assigned in self.assignment.items() if assigned == facility]


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


def greedy_facility_location(
    clients: Sequence[Tuple[float, float]],
    candidates: Sequence[Tuple[float, float]],
    opening_cost: float,
    weights: Optional[Sequence[float]] = None,
) -> FacilitySolution:
    """Greedy uncapacitated facility location.

    Repeatedly open the candidate facility whose opening reduces the total
    (opening + weighted connection) cost the most, until no opening helps.
    This is the classical ln(n)-approximation greedy.

    Args:
        clients: Client locations.
        candidates: Candidate facility locations.
        opening_cost: Cost of opening any one facility.
        weights: Per-client demand weights (defaults to 1 each); each must
            be finite and non-negative.
    """
    if not clients:
        raise ValueError("at least one client is required")
    if not candidates:
        raise ValueError("at least one candidate facility is required")
    if not (math.isfinite(opening_cost) and opening_cost >= 0):
        raise ValueError(f"opening_cost must be finite and non-negative, got {opening_cost!r}")
    weights = _client_weights(weights, len(clients))

    open_facilities: List[int] = []
    # Always open at least the single best facility so every client is served.
    best_first = min(
        range(len(candidates)),
        key=lambda f: _assign_clients(clients, weights, candidates, [f])[1],
    )
    open_facilities.append(best_first)
    _, current_cost = _assign_clients(clients, weights, candidates, open_facilities)
    current_cost += opening_cost

    improved = True
    while improved:
        improved = False
        best_gain = 0.0
        best_candidate = None
        for facility_index in range(len(candidates)):
            if facility_index in open_facilities:
                continue
            _, connection = _assign_clients(
                clients, weights, candidates, open_facilities + [facility_index]
            )
            candidate_cost = connection + opening_cost * (len(open_facilities) + 1)
            gain = current_cost - candidate_cost
            if gain > best_gain + 1e-12:
                best_gain = gain
                best_candidate = facility_index
        if best_candidate is not None:
            open_facilities.append(best_candidate)
            _, connection = _assign_clients(clients, weights, candidates, open_facilities)
            current_cost = connection + opening_cost * len(open_facilities)
            improved = True

    assignment, connection_cost = _assign_clients(clients, weights, candidates, open_facilities)
    return FacilitySolution(
        facilities=sorted(open_facilities),
        assignment=assignment,
        opening_cost=opening_cost * len(open_facilities),
        connection_cost=connection_cost,
    )


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
    ``max_iterations`` is reached); single-swap local search is a 5-
    approximation for metric k-median.  ``weights`` (default 1 per client)
    must be finite and non-negative.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(candidates):
        raise ValueError(f"k={k} exceeds the number of candidate facilities {len(candidates)}")
    if not clients:
        raise ValueError("at least one client is required")
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

    for _ in range(max_iterations):
        improved = False
        for out_index in list(open_facilities):
            for in_index in range(len(candidates)):
                if in_index in open_facilities:
                    continue
                trial = [f for f in open_facilities if f != out_index] + [in_index]
                _, trial_cost = _assign_clients(clients, weights, candidates, trial)
                if trial_cost < current_cost - 1e-12:
                    open_facilities = trial
                    current_cost = trial_cost
                    improved = True
                    break
            if improved:
                break
        if not improved:
            break

    assignment, connection_cost = _assign_clients(clients, weights, candidates, open_facilities)
    return FacilitySolution(
        facilities=sorted(open_facilities),
        assignment=assignment,
        opening_cost=0.0,
        connection_cost=connection_cost,
    )


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
