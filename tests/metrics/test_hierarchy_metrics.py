"""Tests for repro.metrics.hierarchy_metrics."""

import math

import pytest

from repro.core.fkp import generate_fkp_tree
from repro.generators import BarabasiAlbertGenerator, ErdosRenyiGenerator
from repro.metrics.hierarchy_metrics import (
    core_periphery_ratio,
    degree_assortativity,
)
from repro.topology.graph import Topology


class TestAssortativity:
    def test_star_is_disassortative(self, star_topology):
        assert degree_assortativity(star_topology) < 0

    def test_regular_cycle_is_degenerate(self):
        topo = Topology()
        for i in range(6):
            topo.add_node(i)
        for i in range(6):
            topo.add_link(i, (i + 1) % 6)
        assert math.isnan(degree_assortativity(topo))

    def test_empty_topology_nan(self):
        assert math.isnan(degree_assortativity(Topology()))

    def test_ba_more_disassortative_than_er(self):
        ba = BarabasiAlbertGenerator().generate(400, seed=1)
        er = ErdosRenyiGenerator(target_mean_degree=4.0).generate(400, seed=1)
        assert degree_assortativity(ba) < degree_assortativity(er) + 0.05


class TestCorePeriphery:
    def test_star_core_touches_everything(self, star_topology):
        assert core_periphery_ratio(star_topology, core_fraction=0.2) == pytest.approx(1.0)

    def test_invalid_fraction(self, star_topology):
        with pytest.raises(ValueError):
            core_periphery_ratio(star_topology, core_fraction=0.0)

    def test_empty_topology(self):
        assert core_periphery_ratio(Topology()) == 0.0


class TestHierarchyReport:
    def test_fkp_tree_is_hierarchical(self):
        tree = generate_fkp_tree(300, alpha=4.0, seed=4)
        assert degree_assortativity(tree) < 0
        assert core_periphery_ratio(tree) > 0.4
