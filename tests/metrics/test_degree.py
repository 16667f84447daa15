"""Tests for repro.metrics.degree."""

import pytest

from repro.metrics.degree import (
    degree_ccdf,
    degree_histogram,
    degree_statistics,
    leaf_fraction,
    max_degree_share,
    topology_degree_ccdf,
)
from repro.topology.graph import Topology


class TestDegreeStatistics:
    def test_star_statistics(self, star_topology):
        stats = degree_statistics(star_topology)
        assert stats.num_nodes == 6
        assert stats.num_links == 5
        assert stats.maximum == 5
        assert stats.minimum == 1
        assert stats.mean == pytest.approx(10 / 6)

    def test_cv_higher_for_star_than_path(self, star_topology, path_topology):
        star_cv = degree_statistics(star_topology).coefficient_of_variation
        path_cv = degree_statistics(path_topology).coefficient_of_variation
        assert star_cv > path_cv

    def test_empty_topology_raises(self):
        with pytest.raises(ValueError):
            degree_statistics(Topology())


class TestHistogramAndCCDF:
    def test_histogram(self, star_topology):
        histogram = degree_histogram(star_topology)
        assert histogram == {1: 5, 5: 1}

    def test_ccdf_starts_at_one(self, star_topology):
        ccdf = topology_degree_ccdf(star_topology)
        assert ccdf[0][1] == pytest.approx(1.0)

    def test_ccdf_monotone_decreasing(self, path_topology):
        ccdf = topology_degree_ccdf(path_topology)
        values = [v for _, v in ccdf]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_ccdf_of_explicit_sequence(self):
        ccdf = dict(degree_ccdf([1, 1, 2, 3]))
        assert ccdf[1] == pytest.approx(1.0)
        assert ccdf[2] == pytest.approx(0.5)
        assert ccdf[3] == pytest.approx(0.25)

    def test_ccdf_empty(self):
        assert degree_ccdf([]) == []


class TestShapeHelpers:
    def test_leaf_fraction(self, star_topology, path_topology):
        assert leaf_fraction(star_topology) == pytest.approx(5 / 6)
        assert leaf_fraction(path_topology) == pytest.approx(2 / 6)

    def test_leaf_fraction_empty(self):
        assert leaf_fraction(Topology()) == 0.0

    def test_max_degree_share_star(self, star_topology):
        assert max_degree_share(star_topology) == pytest.approx(0.5)

    def test_max_degree_share_path(self, path_topology):
        assert max_degree_share(path_topology) == pytest.approx(2 / 10)
