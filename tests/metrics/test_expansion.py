"""Tests for repro.metrics.expansion."""

import pytest

from repro.core.fkp import generate_fkp_tree
from repro.generators import ErdosRenyiGenerator
from repro.metrics.expansion import ball_sizes, expansion_at, expansion_curve
from repro.topology.graph import Topology


class TestBallSizes:
    def test_path_graph(self, path_topology):
        sizes = ball_sizes(path_topology, 0)
        assert sizes[0] == 1
        assert sizes[1] == 2
        assert sizes[5] == 6

    def test_star_graph(self, star_topology):
        sizes = ball_sizes(star_topology, "hub")
        assert sizes[0] == 1
        assert sizes[1] == 6

    def test_max_hops_limits(self, path_topology):
        sizes = ball_sizes(path_topology, 0, max_hops=2)
        assert max(sizes) == 2


class TestExpansionCurve:
    def test_monotone_nondecreasing(self, path_topology):
        curve = expansion_curve(path_topology, sample_size=None)
        values = [curve[h] for h in sorted(curve)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_reaches_one_on_connected_graph(self, star_topology):
        curve = expansion_curve(star_topology, sample_size=None)
        assert curve[max(curve)] == pytest.approx(1.0)

    def test_empty_topology(self):
        assert expansion_curve(Topology()) == {}

    def test_expansion_at(self, star_topology):
        assert expansion_at(star_topology, hops=2, sample_size=None) == pytest.approx(1.0)
        assert expansion_at(star_topology, hops=0, sample_size=None) == pytest.approx(1 / 6)

    def test_negative_hops_rejected(self, star_topology):
        with pytest.raises(ValueError):
            expansion_at(star_topology, hops=-1)


class TestExpansionContrast:
    def test_random_graph_expands_faster_than_geometric_tree(self):
        random_graph = ErdosRenyiGenerator(target_mean_degree=6.0).generate(300, seed=1)
        tree = generate_fkp_tree(300, alpha=40.0, seed=1)
        assert expansion_at(random_graph, hops=3, sample_size=30) > expansion_at(
            tree, hops=3, sample_size=30
        )
