"""Tests for repro.optimization.facility_location."""

import random

import pytest

from repro.geography.points import random_points
from repro.optimization.facility_location import (
    _assign_clients,
    choose_concentrator_count,
    greedy_facility_location,
    k_median,
)


def two_clusters(rng_seed: int = 0, per_cluster: int = 10):
    rng = random.Random(rng_seed)
    left = [(rng.uniform(0.0, 0.1), rng.uniform(0.0, 0.1)) for _ in range(per_cluster)]
    right = [(rng.uniform(0.9, 1.0), rng.uniform(0.9, 1.0)) for _ in range(per_cluster)]
    return left + right


class TestGreedyFacilityLocation:
    def test_every_client_assigned(self):
        clients = two_clusters()
        solution = greedy_facility_location(clients, clients, opening_cost=0.05)
        assert set(solution.assignment) == set(range(len(clients)))
        assert all(f in solution.facilities for f in solution.assignment.values())

    def test_cheap_facilities_open_in_both_clusters(self):
        clients = two_clusters()
        solution = greedy_facility_location(clients, clients, opening_cost=0.01)
        sides = {int(clients[f][0] > 0.5) for f in solution.facilities}
        assert sides == {0, 1}

    def test_expensive_facilities_open_few(self):
        clients = two_clusters()
        cheap = greedy_facility_location(clients, clients, opening_cost=0.001)
        expensive = greedy_facility_location(clients, clients, opening_cost=100.0)
        assert len(expensive.facilities) <= len(cheap.facilities)
        assert len(expensive.facilities) == 1

    def test_total_cost_components(self):
        clients = two_clusters()
        solution = greedy_facility_location(clients, clients, opening_cost=0.5)
        assert solution.total_cost == pytest.approx(
            solution.opening_cost + solution.connection_cost
        )

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            greedy_facility_location([], [(0, 0)], 1.0)
        with pytest.raises(ValueError):
            greedy_facility_location([(0, 0)], [], 1.0)
        with pytest.raises(ValueError):
            greedy_facility_location([(0, 0)], [(0, 0)], -1.0)
        with pytest.raises(ValueError):
            greedy_facility_location([(0, 0)], [(0, 0)], 1.0, weights=[1.0, 2.0])

    def test_weights_pull_facility_toward_heavy_client(self):
        clients = [(0.0, 0.0), (1.0, 0.0)]
        candidates = [(0.0, 0.0), (1.0, 0.0)]
        solution = greedy_facility_location(
            clients, candidates, opening_cost=10.0, weights=[1.0, 100.0]
        )
        assert solution.facilities == [1]


class TestKMedian:
    def test_opens_exactly_k(self):
        clients = two_clusters()
        solution = k_median(clients, clients, k=2)
        assert len(solution.facilities) == 2

    def test_k2_separates_clusters(self):
        clients = two_clusters()
        solution = k_median(clients, clients, k=2, rng=random.Random(1))
        facility_sides = {int(clients[f][0] > 0.5) for f in solution.facilities}
        assert facility_sides == {0, 1}

    def test_connection_cost_decreases_with_k(self):
        clients = random_points(40, random.Random(2))
        cost1 = k_median(clients, clients, k=1).connection_cost
        cost4 = k_median(clients, clients, k=4).connection_cost
        assert cost4 <= cost1

    def test_clients_of(self):
        clients = two_clusters()
        solution = k_median(clients, clients, k=2)
        total = sum(len(solution.clients_of(f)) for f in solution.facilities)
        assert total == len(clients)

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            k_median([(0, 0)], [(0, 0)], k=0)
        with pytest.raises(ValueError):
            k_median([(0, 0)], [(0, 0)], k=2)

    def test_pinned_solution_with_many_facilities(self):
        # Facilities and cost bits as a grid-backed assignment also produced
        # them at k >= 9: any faster assignment path must reproduce them.
        rng = random.Random(9)
        clients = [(rng.random(), rng.random()) for _ in range(50)]
        weights = [float(rng.randint(1, 8)) for _ in range(50)]
        solution = k_median(clients, clients, k=9, weights=weights, rng=random.Random(1))
        assert solution.facilities == [0, 3, 4, 8, 20, 27, 33, 45, 49]
        assert solution.connection_cost.hex() == "0x1.4a0d3e0092079p+4"


class TestInputValidation:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -50.0])
    def test_bad_weights_rejected(self, bad):
        clients = two_clusters()
        weights = [1.0] * len(clients)
        weights[3] = bad
        with pytest.raises(ValueError, match="weights"):
            greedy_facility_location(clients, clients, 0.05, weights=weights)
        with pytest.raises(ValueError, match="weights"):
            k_median(clients, clients, k=2, weights=weights)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_bad_opening_cost_rejected(self, bad):
        with pytest.raises(ValueError, match="opening_cost"):
            greedy_facility_location(two_clusters(), two_clusters(), bad)


class TestConcentratorCount:
    def test_rounding_up(self):
        assert choose_concentrator_count(25, clients_per_concentrator=24) == 2
        assert choose_concentrator_count(24, clients_per_concentrator=24) == 1

    def test_at_least_one(self):
        assert choose_concentrator_count(0) == 1

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            choose_concentrator_count(-1)
        with pytest.raises(ValueError):
            choose_concentrator_count(5, clients_per_concentrator=0)


class TestAssignClients:
    def test_tie_breaks_toward_scan_order(self):
        # Two facilities equidistant from the client: the first entry of
        # ``open_facilities`` wins.
        clients = [(0.0, 0.0)]
        candidates = [(1.0, 0.0), (-1.0, 0.0)]
        for order in ([1, 0], [0, 1]):
            assignment, cost = _assign_clients(clients, [1.0], candidates, order)
            assert assignment == {0: order[0]}
            assert cost == 1.0
