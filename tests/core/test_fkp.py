"""Tests for repro.core.fkp — the FKP tradeoff growth model (paper §3.1)."""

import math

import pytest

from repro.core.fkp import (
    FKPModel,
    FKPParameters,
    FKPState,
    alpha_regime,
    euclidean_centrality,
    generate_fkp_tree,
    subtree_load_centrality,
)
from repro.topology.graph import Topology
from repro.metrics.degree import max_degree_share
from repro.metrics.fits import classify_tail
from repro.topology.node import NodeRole


class TestParameters:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            FKPParameters(num_nodes=0, alpha=1.0)
        with pytest.raises(ValueError):
            FKPParameters(num_nodes=10, alpha=-1.0)
        with pytest.raises(ValueError, match="alpha"):
            FKPParameters(num_nodes=10, alpha=math.nan)
        with pytest.raises(ValueError, match="alpha"):
            FKPParameters(num_nodes=10, alpha=math.inf)


class TestAlphaRegime:
    def test_star_regime(self):
        assert alpha_regime(0.1, 1000) == "star"
        assert alpha_regime(1.0 / math.sqrt(2.0) - 1e-9, 1000) == "star"

    def test_power_law_regime(self):
        assert alpha_regime(4.0, 1000) == "power-law"
        assert alpha_regime(10.0, 1000) == "power-law"

    def test_exponential_regime(self):
        assert alpha_regime(math.sqrt(1000), 1000) == "exponential"
        assert alpha_regime(1000.0, 1000) == "exponential"


class TestGrowth:
    def test_result_is_a_tree(self):
        topo = generate_fkp_tree(150, 4.0, seed=1)
        assert topo.is_tree()
        assert topo.num_nodes == 150
        assert topo.num_links == 149

    def test_root_is_core(self):
        topo = generate_fkp_tree(20, 4.0, seed=1)
        assert topo.node(0).role == NodeRole.CORE
        assert topo.node(5).role == NodeRole.CUSTOMER

    def test_deterministic_with_seed(self):
        a = generate_fkp_tree(80, 4.0, seed=9)
        b = generate_fkp_tree(80, 4.0, seed=9)
        assert sorted(a.link_keys()) == sorted(b.link_keys())

    def test_different_seed_changes_tree(self):
        a = generate_fkp_tree(80, 4.0, seed=1)
        b = generate_fkp_tree(80, 4.0, seed=2)
        assert sorted(a.link_keys()) != sorted(b.link_keys())

    def test_single_node(self):
        topo = generate_fkp_tree(1, 4.0, seed=1)
        assert topo.num_nodes == 1
        assert topo.num_links == 0

    def test_metadata_records_alpha_and_regime(self):
        topo = generate_fkp_tree(50, 0.1, seed=1)
        assert topo.metadata["alpha"] == 0.1
        assert topo.metadata["regime"] == "star"

    def test_all_nodes_have_locations_in_unit_square(self):
        topo = generate_fkp_tree(60, 4.0, seed=2)
        for node in topo.nodes():
            x, y = node.location
            assert 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0


class TestRegimeBehaviour:
    """The paper's §3.1 claims about the three alpha regimes."""

    def test_small_alpha_gives_star(self):
        topo = generate_fkp_tree(200, 0.1, seed=3)
        # The root connects (almost) everyone: it holds ~half of all endpoints.
        assert max_degree_share(topo) > 0.45

    def test_large_alpha_gives_bounded_degrees(self):
        n = 400
        topo = generate_fkp_tree(n, 2.0 * math.sqrt(n), seed=3)
        assert max(topo.degree_sequence()) < 30

    def test_intermediate_alpha_has_heavier_tail_than_large_alpha(self):
        n = 400
        intermediate = generate_fkp_tree(n, 4.0, seed=5)
        large = generate_fkp_tree(n, 3.0 * math.sqrt(n), seed=5)
        assert max(intermediate.degree_sequence()) > max(large.degree_sequence())

    def test_large_alpha_tail_classified_exponential(self):
        n = 500
        topo = generate_fkp_tree(n, 2.0 * math.sqrt(n), seed=7)
        verdict = classify_tail(topo.degree_sequence()).verdict
        assert verdict in ("exponential", "inconclusive")

    def test_intermediate_alpha_tail_not_exponential(self):
        topo = generate_fkp_tree(500, 4.0, seed=7)
        verdict = classify_tail(topo.degree_sequence()).verdict
        assert verdict in ("power-law", "inconclusive")


class TestSubtreePropagation:
    def test_parent_pointer_propagation_counts_descendants(self):
        """Subtree sizes follow the explicit parent pointers exactly."""
        topology = Topology()
        # Tree: 0 - 1 - 2, 1 - 3, 0 - 4
        parents = {1: 0, 2: 1, 3: 1, 4: 0}
        locations = [(0.0, 0.0)] * 5
        for node in range(5):
            topology.add_node(node)
        state = FKPState(
            topology=topology,
            locations=locations,
            hop_to_root={0: 0},
            subtree_size={0: 1},
        )
        model = FKPModel(FKPParameters(num_nodes=5, alpha=1.0, seed=0))
        for child, parent in parents.items():
            topology.add_link(parent, child)
            state.hop_to_root[child] = state.hop_to_root[parent] + 1
            state.subtree_size[child] = 1
            state.parent[child] = parent
            model._propagate_subtree_increment(state, parent)
        assert state.subtree_size == {0: 5, 1: 3, 2: 1, 3: 1, 4: 1}

    def test_generated_subtree_sizes_consistent(self):
        """End-to-end: every subtree size equals 1 + sum of child subtrees."""
        captured = {}

        def capturing_centrality(state, node_id):
            captured["state"] = state
            return float(state.hop_to_root[node_id])

        model = FKPModel(
            FKPParameters(num_nodes=80, alpha=4.0, seed=3),
            centrality=capturing_centrality,
        )
        topo = model.generate()
        state = captured["state"]
        children = {}
        for child, parent in state.parent.items():
            children.setdefault(parent, []).append(child)

        def count(node):
            return 1 + sum(count(c) for c in children.get(node, []))

        for node in topo.node_ids():
            assert state.subtree_size[node] == count(node)


class TestVariants:
    def test_euclidean_centrality_variant(self):
        model = FKPModel(
            FKPParameters(num_nodes=60, alpha=4.0, seed=2),
            centrality=euclidean_centrality,
        )
        assert model.generate().is_tree()

    def test_subtree_load_centrality_variant(self):
        model = FKPModel(
            FKPParameters(num_nodes=60, alpha=4.0, seed=2),
            centrality=subtree_load_centrality,
        )
        assert model.generate().is_tree()

    def test_alpha_sweep_returns_all_alphas(self):
        # One tree per alpha from one seed: the node placement ignores alpha.
        sweep = {alpha: generate_fkp_tree(50, alpha, seed=1) for alpha in (0.1, 4.0, 50.0)}
        assert all(t.is_tree() for t in sweep.values())
        placements = [[(n.node_id, n.location) for n in t.nodes()] for t in sweep.values()]
        assert placements[0] == placements[1] == placements[2]
