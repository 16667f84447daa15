"""Tests for the move-based local search API (hill climbing and annealing).

The headline property — copy-based and move-based annealing follow identical
trajectories for the same seed — is exercised through the E10 suite helpers,
which is also what the benchmark gates.
"""

import random

import pytest

from repro.core.objectives import CostObjective
from repro.experiments.suites.e10_local_search import (
    build_anneal_instance,
    draw_move,
    run_anneal_pair,
)
from repro.optimization.incremental import IncrementalState, UpgradeCable
from repro.optimization.local_search import (
    hill_climb_moves,
    simulated_annealing_moves,
)


def upgrade_proposal(context):
    """Cable right-sizing proposals over a fixed tree (always feasible)."""

    def propose(state, rng):
        return draw_move(state.topology, rng, context)

    return propose


class TestHillClimbMoves:
    def test_descends_and_returns_best_topology(self):
        topology, context = build_anneal_instance(60, seed=9)
        state = IncrementalState(topology, CostObjective())
        start = state.score
        result = hill_climb_moves(
            state, upgrade_proposal(context), max_iterations=400, rng=random.Random(1)
        )
        assert result.best_cost < start
        assert result.best_solution is topology
        # Pure descent: the working topology ends at the best score exactly.
        assert state.score == result.best_cost
        assert result.history[0] == start
        assert len(result.history) == result.iterations + 1

    def test_patience_stops_early(self):
        topology, context = build_anneal_instance(20, seed=2)
        state = IncrementalState(topology, CostObjective())

        def never_improves(st, rng):
            rng.random()
            return None

        result = hill_climb_moves(
            state, never_improves, max_iterations=500, patience=10, rng=random.Random(0)
        )
        assert result.iterations == 10
        assert result.accepted_moves == 0

    def test_invalid_arguments_rejected(self):
        topology, context = build_anneal_instance(10, seed=0)
        state = IncrementalState(topology, CostObjective())
        with pytest.raises(ValueError):
            hill_climb_moves(state, upgrade_proposal(context), max_iterations=-1)

    def test_infeasible_proposals_leave_state_intact(self):
        topology, context = build_anneal_instance(15, seed=4)
        state = IncrementalState(topology, CostObjective())
        customer, target = context.tree_links[0]

        def duplicate_link(st, rng):
            from repro.optimization.incremental import AddLink

            return AddLink(customer, target)

        result = hill_climb_moves(
            state, duplicate_link, max_iterations=30, patience=5, rng=random.Random(0)
        )
        assert result.accepted_moves == 0
        state.verify()


class TestSimulatedAnnealingMoves:
    def test_rolls_back_to_best_depth(self):
        topology, context = build_anneal_instance(60, seed=7)
        state = IncrementalState(topology, CostObjective())
        result = simulated_annealing_moves(
            state, upgrade_proposal(context), max_iterations=500, rng=random.Random(3)
        )
        # After the rollback the working topology scores exactly the best cost.
        assert state.score == result.best_cost
        state.verify()

    def test_matches_copy_based_trajectory(self):
        payload = run_anneal_pair(120, "cost", iterations=250, seed=11, audit=True)
        assert payload["scores_equal"]
        assert payload["identical_edges"]
        assert payload["baseline_accepted"] == payload["incremental_accepted"]
        assert payload["incremental_full_evals"] <= 2
        assert payload["delta_evals"] == 250

    def test_matches_copy_based_trajectory_profit(self):
        payload = run_anneal_pair(100, "profit", iterations=200, seed=13, audit=False)
        assert payload["scores_equal"]
        assert payload["identical_edges"]


class TestUpgradeOnlySearch:
    def test_finds_per_link_optimum(self):
        """With only cable upgrades, hill climbing approaches the separable optimum."""
        topology, context = build_anneal_instance(30, seed=8)
        catalog = context.catalog
        optimal = sum(
            min(
                cable.install_cost * max(1, 1) * link.length + cable.usage_cost * link.length * link.load
                for cable in catalog
            )
            for link in topology.links()
        )

        def upgrades_only(state, rng):
            u, v = context.tree_links[rng.randrange(len(context.tree_links))]
            cable = context.cables[rng.randrange(len(context.cables))]
            link = state.topology.link(u, v)
            return UpgradeCable(
                u,
                v,
                cable=cable.name,
                capacity=cable.capacity,
                install_cost=cable.install_cost * link.length,
                usage_cost=cable.usage_cost * link.length,
            )

        state = IncrementalState(topology, CostObjective())
        result = hill_climb_moves(
            state, upgrades_only, max_iterations=3000, patience=600, rng=random.Random(2)
        )
        node_cost = state._node_equipment
        assert result.best_cost == pytest.approx(optimal + node_cost, rel=0.05)
