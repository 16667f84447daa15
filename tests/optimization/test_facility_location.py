"""Tests for repro.optimization.facility_location."""

import random

import pytest

from repro.geography.points import euclidean, random_points
from repro.geography.regions import Region
from repro.optimization.facility_location import (
    _assign_clients,
    choose_concentrator_count,
    k_median,
)


def two_clusters(rng_seed: int = 0, per_cluster: int = 10):
    rng = random.Random(rng_seed)
    left = [(rng.uniform(0.0, 0.1), rng.uniform(0.0, 0.1)) for _ in range(per_cluster)]
    right = [(rng.uniform(0.9, 1.0), rng.uniform(0.9, 1.0)) for _ in range(per_cluster)]
    return left + right


def _reference_k_median(clients, candidates, k, weights, rng, max_iterations):
    """The swap loop that reassigns every client per trial: the oracle for ``k_median``."""
    open_facilities = [rng.randrange(len(candidates))]
    while len(open_facilities) < k:
        def distance_to_open(index):
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
    return sorted(open_facilities), assignment, connection_cost


def random_point(rng, on_grid):
    if on_grid:
        return (float(rng.randint(0, 4)), float(rng.randint(0, 4)))
    return (rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0))


def uniform_instance():
    rng = random.Random(9)
    clients = [(rng.random(), rng.random()) for _ in range(50)]
    weights = [float(rng.randint(1, 8)) for _ in range(50)]
    return clients, weights, 9, random.Random(1)


def metro_instance():
    # Shaped like the largest k-median call of an ISP design: one metro's customers.
    region = Region(name="m", width=40.0, height=40.0, origin=(0.0, 0.0))
    clients = region.sample_clustered(144, 7, random.Random(144))
    return clients, [2.0] * 144, 6, random.Random(3)


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

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            k_median([(0, 0)], [(0, 0)], k=0)
        with pytest.raises(ValueError):
            k_median([(0, 0)], [(0, 0)], k=2)

    @pytest.mark.parametrize(
        "instance, facilities, cost_hex",
        [
            pytest.param(
                uniform_instance,
                [0, 3, 4, 8, 20, 27, 33, 45, 49],
                "0x1.4a0d3e0092079p+4",
                id="k9",
            ),
            pytest.param(
                metro_instance,
                [1, 7, 70, 117, 133, 139],
                "0x1.58857b4d950bbp+9",
                id="metro",
            ),
        ],
    )
    def test_pinned_solution_with_many_facilities(self, instance, facilities, cost_hex):
        # Facilities and cost bits as reassigning every client per swap trial
        # produced them: any faster swap pricing must reproduce them.
        clients, weights, k, rng = instance()
        solution = k_median(clients, clients, k=k, weights=weights, rng=rng)
        assert solution.facilities == facilities
        assert solution.connection_cost.hex() == cost_hex

    def test_matches_full_reassignment_oracle(self):
        rng = random.Random(2007)
        for case in range(200):
            # Every third instance lies on a 5x5 integer grid, so distances
            # tie and points repeat.
            on_grid = case % 3 == 0
            clients = [random_point(rng, on_grid) for _ in range(rng.randint(1, 24))]
            if case % 2:
                candidates = clients
            else:
                candidates = [random_point(rng, on_grid) for _ in range(rng.randint(1, 24))]
            if case % 4 < 2:
                weights = [float(rng.randint(0, 5)) for _ in clients]
            else:
                weights = [rng.choice([0.0, rng.uniform(0.0, 3.0)]) for _ in clients]
            k = rng.randint(1, len(candidates))
            max_iterations = rng.choice([0, 1, 2, 100])
            seed = rng.randrange(1 << 30)

            solution = k_median(
                clients,
                candidates,
                k,
                weights=weights,
                rng=random.Random(seed),
                max_iterations=max_iterations,
            )
            facilities, assignment, cost = _reference_k_median(
                clients, candidates, k, weights, random.Random(seed), max_iterations
            )
            assert solution.facilities == facilities, case
            assert solution.assignment == assignment, case
            assert solution.connection_cost.hex() == cost.hex(), case


class TestInputValidation:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -50.0])
    def test_bad_weights_rejected(self, bad):
        clients = two_clusters()
        weights = [1.0] * len(clients)
        weights[3] = bad
        with pytest.raises(ValueError, match="weights"):
            k_median(clients, clients, k=2, weights=weights)

    @pytest.mark.parametrize("role", ["clients", "candidates"])
    @pytest.mark.parametrize(
        "bad",
        [(float("nan"), 0.0), (float("inf"), 0.0), (0.0, float("-inf"))],
        ids=["nan_x", "inf_x", "neg_inf_y"],
    )
    def test_non_finite_coordinates_rejected(self, role, bad):
        points = {"clients": two_clusters(), "candidates": two_clusters()}
        points[role][3] = bad
        with pytest.raises(ValueError, match=role):
            k_median(points["clients"], points["candidates"], k=2)

    def test_negative_max_iterations_rejected(self):
        with pytest.raises(ValueError, match="max_iterations"):
            k_median(two_clusters(), two_clusters(), k=2, max_iterations=-3)


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
