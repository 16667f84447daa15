"""Tests for the uniform spatial grid index (repro.geography.spatial_index)."""

import math
import random

import pytest

from repro.core.fkp import euclidean_centrality, generate_fkp_tree, hop_centrality
from repro.geography.regions import metro_region, unit_square
from repro.geography.spatial_index import GridBuckets, SpatialGridIndex
from repro.topology.compiled import KERNEL_COUNTERS


def brute_force_argmin(points, query, alpha, exclude=()):
    """Ascending-id scan with strict improvement — the seed's selection rule."""
    best_id, best_obj = None, math.inf
    for item_id, (x, y), score in points:
        if item_id in exclude:
            continue
        objective = alpha * math.hypot(query[0] - x, query[1] - y) + score
        if objective < best_obj:
            best_obj = objective
            best_id = item_id
    return best_id, best_obj


def _layout(name, rng):
    """400 point locations and a query sampler for one test layout."""
    if name == "inside":
        points = [(rng.random(), rng.random()) for _ in range(400)]
        return points, lambda: (rng.random(), rng.random())
    if name == "outside":
        # Points and queries up to one side beyond the unit square: the edge
        # cells hold the points clamped into them and must still bound them.
        points = [(rng.uniform(-1.0, 2.0), rng.uniform(-1.0, 2.0)) for _ in range(400)]
        return points, lambda: (rng.uniform(-1.0, 2.0), rng.uniform(-1.0, 2.0))
    # Tight clusters with empty space between them, as FKP's hop levels are.
    points = unit_square().sample_clustered(400, 6, rng, spread=0.02)
    return points, lambda: (rng.random(), rng.random())


class TestSpatialGridIndex:
    @pytest.mark.parametrize("alpha", [0.0, 0.1, 1.0, 4.0, 50.0])
    def test_argmin_matches_brute_force(self, alpha):
        rng = random.Random(int(alpha * 10) + 1)
        for layout in ("inside", "outside", "clustered"):
            locations, sample_query = _layout(layout, rng)
            # Eight expected points: the 400 inserts go through three rebuilds.
            index = SpatialGridIndex(unit_square(), expected_points=8)
            points = []
            for item_id, location in enumerate(locations):
                score = float(rng.randrange(0, 12))
                points.append((item_id, location, score))
                index.insert(item_id, location, score)
                query = sample_query()
                assert index.argmin(query, alpha) == brute_force_argmin(points, query, alpha)
                excluded = set(range(0, item_id, 3))
                expected = brute_force_argmin(points, query, alpha, excluded)
                assert index.argmin(query, alpha, exclude=excluded) == expected
                # An incumbent at or above the best objective still finds the
                # best; below it, anything returned is worse than the incumbent.
                incumbent = expected[1] + rng.uniform(-1.0, 1.0)
                found = index.argmin(query, alpha, stop_above=incumbent, exclude=excluded)
                if expected[1] <= incumbent:
                    assert found == expected
                else:
                    assert found[0] is None or found[1] > incumbent

    def test_point_outside_region_is_found(self):
        # Point 1 lies left of the region and is clamped into the first
        # column. The query is 0.22 from it but 1.0 from that column's part of
        # the region, so a bound taken from the region alone would prune it.
        index = SpatialGridIndex(unit_square(), expected_points=100)
        points = [(0, (0.0, 0.52), 0.0), (1, (-1.0, 0.30), 0.0)]
        for item_id, location, score in points:
            index.insert(item_id, location, score)
        query = (-1.0, 0.52)
        assert index.argmin(query, 1.0) == brute_force_argmin(points, query, 1.0)
        assert index.argmin(query, 1.0)[0] == 1

    def test_tie_breaks_toward_lowest_id(self):
        index = SpatialGridIndex(unit_square(), expected_points=4)
        # Nodes 7 and 3 tie exactly (same location, same score); 9 loses.
        index.insert(7, (0.5, 0.5), 1.0)
        index.insert(3, (0.5, 0.5), 1.0)
        index.insert(9, (0.9, 0.9), 2.0)
        best_id, best_obj = index.argmin((0.5, 0.5), 1.0)
        assert best_id == 3
        assert best_obj == 1.0

    def test_stop_above_prunes_but_never_loses_ties(self):
        index = SpatialGridIndex(unit_square(), expected_points=4)
        index.insert(1, (0.1, 0.1), 0.0)
        index.insert(2, (0.9, 0.9), 0.0)
        query = (0.1, 0.1)
        # Incumbent exactly equal to node 1's objective: 1 must still be found.
        best_id, best_obj = index.argmin(query, 1.0, stop_above=0.0)
        assert best_id == 1
        assert best_obj == 0.0
        # Incumbent below anything reachable: everything may be pruned.
        best_id, best_obj = index.argmin(query, 1.0, stop_above=-1.0)
        assert best_id is None and best_obj == math.inf

    def test_non_unit_region(self):
        rng = random.Random(4)
        region = metro_region(size_km=50.0)
        index = SpatialGridIndex(region, expected_points=8)
        points = []
        for item_id in range(200):
            location = (rng.random() * 50.0, rng.random() * 50.0)
            score = rng.random() * 5.0
            points.append((item_id, location, score))
            index.insert(item_id, location, score)
        for _ in range(50):
            query = (rng.random() * 50.0, rng.random() * 50.0)
            assert index.argmin(query, 2.0) == brute_force_argmin(points, query, 2.0)

    def test_rebuild_keeps_all_points(self):
        index = SpatialGridIndex(unit_square(), expected_points=1)
        rng = random.Random(2)
        for item_id in range(300):  # forces several grid rebuilds
            index.insert(item_id, (rng.random(), rng.random()), 0.0)
        assert len(index) == 300
        best_id, _ = index.argmin((0.5, 0.5), 1.0)
        assert 0 <= best_id < 300

    def test_empty_query_raises(self):
        with pytest.raises(ValueError):
            SpatialGridIndex(unit_square()).argmin((0.5, 0.5), 1.0)

    def test_counters_increment(self):
        KERNEL_COUNTERS.reset()
        index = SpatialGridIndex(unit_square(), expected_points=4)
        index.insert(0, (0.2, 0.2), 0.0)
        index.argmin((0.3, 0.3), 1.0)
        assert KERNEL_COUNTERS.spatial_queries == 1
        assert KERNEL_COUNTERS.spatial_candidates >= 1

    @pytest.mark.parametrize(
        "alpha, seed, centrality, work",
        [
            (10.0, 1, hop_centrality, (8895, 21429)),
            (4.0, 2, hop_centrality, (6691, 12036)),
            (10.0, 1, euclidean_centrality, (2999, 10003)),
        ],
    )
    def test_fkp_search_work_is_pinned(self, alpha, seed, centrality, work):
        # The order in which a query visits cells decides which cells the
        # incumbent prunes, so a drift in it changes these counts even when
        # the tree stays the same.
        KERNEL_COUNTERS.reset()
        generate_fkp_tree(3000, alpha, seed=seed, centrality=centrality)
        assert (KERNEL_COUNTERS.spatial_queries, KERNEL_COUNTERS.spatial_candidates) == work


class TestGridBuckets:
    def test_every_point_bucketed_once(self):
        rng = random.Random(1)
        points = [(rng.random(), rng.random()) for _ in range(200)]
        buckets = GridBuckets(points, unit_square(), cells_per_side=5)
        seen = sorted(i for _, members in buckets.cells for i in members)
        assert seen == list(range(200))

    def test_cells_sorted_for_determinism(self):
        rng = random.Random(2)
        points = [(rng.random(), rng.random()) for _ in range(100)]
        buckets = GridBuckets(points, unit_square(), cells_per_side=4)
        keys = [key for key, _ in buckets.cells]
        assert keys == sorted(keys)

    def test_min_distance_is_a_lower_bound(self):
        rng = random.Random(3)
        points = [(rng.random(), rng.random()) for _ in range(150)]
        buckets = GridBuckets(points, unit_square(), cells_per_side=4)
        for key_a, members_a in buckets.cells:
            for key_b, members_b in buckets.cells:
                lower = buckets.min_distance(key_a, key_b)
                for i in members_a:
                    for j in members_b:
                        if i != j:
                            actual = math.hypot(
                                points[i][0] - points[j][0],
                                points[i][1] - points[j][1],
                            )
                            assert actual >= lower - 1e-12

    def test_adjacent_and_same_cells_have_zero_bound(self):
        buckets = GridBuckets([(0.1, 0.1)], unit_square(), cells_per_side=4)
        assert buckets.min_distance((0, 0), (0, 0)) == 0.0
        assert buckets.min_distance((0, 0), (1, 1)) == 0.0
        assert buckets.min_distance((0, 0), (2, 0)) == 0.25

    def test_invalid_cells_per_side(self):
        with pytest.raises(ValueError):
            GridBuckets([], unit_square(), cells_per_side=0)
