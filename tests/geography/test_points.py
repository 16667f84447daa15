"""Tests for repro.geography.points."""

import random

import pytest

from repro.geography.points import clustered_points, euclidean, random_points


class TestDistanceHelpers:
    def test_euclidean(self):
        assert euclidean((0, 0), (3, 4)) == pytest.approx(5.0)


class TestSampling:
    def test_random_points_in_rectangle(self):
        rng = random.Random(1)
        points = random_points(100, rng, width=2.0, height=3.0, origin=(1.0, 1.0))
        assert len(points) == 100
        assert all(1.0 <= x <= 3.0 and 1.0 <= y <= 4.0 for x, y in points)

    def test_random_points_deterministic_with_seed(self):
        assert random_points(10, random.Random(7)) == random_points(10, random.Random(7))

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            random_points(-1)

    def test_clustered_points_within_bounds(self):
        rng = random.Random(2)
        points = clustered_points(200, 4, rng)
        assert len(points) == 200
        assert all(0 <= x <= 1 and 0 <= y <= 1 for x, y in points)

    def test_clustered_points_are_clustered(self):
        rng = random.Random(3)
        clustered = clustered_points(200, 2, rng, spread=0.01)
        uniform = random_points(200, random.Random(3))
        def mean_nn(points):
            total = 0.0
            for p in points:
                total += min(euclidean(p, q) for q in points if q is not p)
            return total / len(points)
        assert mean_nn(clustered) < mean_nn(uniform)

    def test_clustered_invalid_clusters_raises(self):
        with pytest.raises(ValueError):
            clustered_points(10, 0)
