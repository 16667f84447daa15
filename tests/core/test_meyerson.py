"""Tests for repro.core.meyerson — the randomized incremental buy-at-bulk solver."""

import math
from unittest import mock

import pytest

from repro.core import meyerson
from repro.core.buyatbulk import random_instance, solve_direct_star, trivial_lower_bound
from repro.core.meyerson import (
    BUY_AT_BULK_ALGORITHMS,
    MeyersonBuyAtBulk,
    MeyersonParameters,
    best_of_runs,
    solve_buy_at_bulk,
    solve_meyerson,
)
from repro.metrics.fits import classify_tail

from oracles import ScanLayeredNetwork


class TestParameters:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            MeyersonParameters(arrival_order="alphabetical")


class TestSolve:
    def test_solution_is_feasible_tree(self, medium_instance):
        solution = solve_meyerson(medium_instance, seed=1)
        assert solution.is_feasible()
        assert solution.topology.is_tree()
        assert solution.algorithm == "meyerson-incremental"

    def test_deterministic_with_seed(self, medium_instance):
        a = solve_meyerson(medium_instance, seed=5)
        b = solve_meyerson(medium_instance, seed=5)
        assert sorted(a.topology.link_keys()) == sorted(b.topology.link_keys())

    def test_different_seeds_differ(self, medium_instance):
        a = solve_meyerson(medium_instance, seed=1)
        b = solve_meyerson(medium_instance, seed=2)
        assert sorted(a.topology.link_keys()) != sorted(b.topology.link_keys())

    def test_all_links_provisioned(self, medium_instance):
        solution = solve_meyerson(medium_instance, seed=1)
        for link in solution.topology.links():
            assert link.cable is not None
            assert link.capacity >= link.load - 1e-9

    def test_beats_direct_star_with_economies_of_scale(self, medium_instance):
        meyerson_cost = solve_meyerson(medium_instance, seed=3).total_cost()
        star_cost = solve_direct_star(medium_instance).total_cost()
        assert meyerson_cost < star_cost

    def test_cost_above_lower_bound(self, medium_instance):
        bound = trivial_lower_bound(medium_instance)
        assert solve_meyerson(medium_instance, seed=1).total_cost() >= 0.999 * bound

    def test_arrival_order_variants(self, medium_instance):
        for order in ("random", "demand", "given"):
            solver = MeyersonBuyAtBulk(
                medium_instance, MeyersonParameters(seed=1, arrival_order=order)
            )
            assert solver.solve().is_feasible()

    def test_hub_layers_recorded_in_metadata(self, medium_instance):
        solution = solve_meyerson(medium_instance, seed=1)
        layers = solution.topology.metadata["hub_layers"]
        assert len(layers) == len(medium_instance.customers)
        num_cables = len(medium_instance.catalog)
        assert all(0 <= layer < num_cables for layer in layers.values())


class TestPaperClaim:
    """Section 4.2: the approximation yields trees with exponential degree tails."""

    def test_exponential_degree_distribution(self):
        instance = random_instance(300, seed=11)
        solution = solve_meyerson(instance, seed=11)
        assert solution.topology.is_tree()
        verdict = classify_tail(solution.topology.degree_sequence()).verdict
        assert verdict in ("exponential", "inconclusive")

    def test_no_giant_hub(self):
        instance = random_instance(300, seed=13)
        solution = solve_meyerson(instance, seed=13)
        # Unlike the star baseline (degree 300), the incremental tree spreads
        # aggregation over many hubs.
        assert max(solution.topology.degree_sequence()) < 50


class TestSolveBuyAtBulk:
    @pytest.mark.parametrize("algorithm", BUY_AT_BULK_ALGORITHMS)
    def test_every_algorithm_solves_feasibly(self, medium_instance, algorithm):
        assert solve_buy_at_bulk(medium_instance, algorithm, seed=1).is_feasible()

    def test_unknown_algorithm_rejected(self, medium_instance):
        with pytest.raises(ValueError, match="oracle"):
            solve_buy_at_bulk(medium_instance, "oracle")


class TestBestOfRuns:
    def test_never_worse_than_single_run(self, medium_instance):
        single = solve_meyerson(medium_instance, seed=0).total_cost()
        best = best_of_runs(medium_instance, num_runs=4, seed=0).total_cost()
        assert best <= single + 1e-9

    def test_requires_positive_runs(self, medium_instance):
        with pytest.raises(ValueError):
            best_of_runs(medium_instance, num_runs=0)


class TestApproximationFactor:
    def test_measured_ratio_within_indicative_bound(self, medium_instance):
        # The indicative expected factor of layered sampling over K cable
        # types, 2 * (1 + log2(K + 1)); a sanity figure, not a proof.
        factor = 2.0 * (1.0 + math.log2(len(medium_instance.catalog) + 1))
        cost = best_of_runs(medium_instance, num_runs=3, seed=1).total_cost()
        bound = trivial_lower_bound(medium_instance)
        # The trivial lower bound is loose, so allow a generous multiple.
        assert cost <= 5 * factor * bound


def solve_with_scan(instance, parameters):
    """Solve with the seed's linear-scan layer state patched in."""
    with mock.patch.object(meyerson, "_LayeredNetwork", ScanLayeredNetwork):
        return MeyersonBuyAtBulk(instance, parameters).solve()


class TestSpatialIndexEquivalence:
    """The grid-backed nearest-member queries are exact: solutions are
    bit-identical to the seed's linear-scan implementation."""

    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("clustered", [False, True])
    def test_solutions_bit_identical(self, seed, clustered):
        instance = random_instance(150, seed=seed, clustered=clustered)
        grid = MeyersonBuyAtBulk(instance, MeyersonParameters(seed=seed)).solve()
        scan = solve_with_scan(instance, MeyersonParameters(seed=seed))
        assert sorted(map(str, grid.topology.link_keys())) == sorted(
            map(str, scan.topology.link_keys())
        )
        assert grid.total_cost() == scan.total_cost()

    def test_arrival_order_variants_identical(self, medium_instance):
        for order in ("random", "demand", "given"):
            parameters = MeyersonParameters(seed=2, arrival_order=order)
            grid = MeyersonBuyAtBulk(medium_instance, parameters).solve()
            scan = solve_with_scan(medium_instance, parameters)
            assert sorted(map(str, grid.topology.link_keys())) == sorted(
                map(str, scan.topology.link_keys())
            )
