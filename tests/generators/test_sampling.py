"""Property tests for the generation engine's samplers (repro.generators.sampling)."""

import random

import pytest

from repro.generators.sampling import (
    FenwickSampler,
    MultisetSampler,
    skip_sampled_indices,
    skip_sampled_pairs,
)
from repro.topology.compiled import KERNEL_COUNTERS

from oracles import linear_weighted_index


class TestFenwickAgainstLinearReference:
    """The Fenwick select must agree with the naive inverse-CDF scan."""

    def test_integer_weights_exact_agreement(self):
        rng = random.Random(42)
        for _ in range(50):
            size = rng.randrange(1, 60)
            weights = [rng.randrange(0, 6) for _ in range(size)]
            if not any(weights):
                weights[rng.randrange(size)] = 1
            sampler = FenwickSampler(size)
            for index, weight in enumerate(weights):
                sampler.set_weight(index, weight)
            total = sum(weights)
            assert sampler.total() == total
            for _ in range(40):
                target = rng.random() * total
                assert sampler.select(target) == linear_weighted_index(weights, target)

    def test_integer_boundary_targets(self):
        """Exact integer targets sit on cumulative boundaries — the hard case."""
        weights = [2, 0, 3, 0, 0, 1, 4]
        sampler = FenwickSampler(len(weights))
        for index, weight in enumerate(weights):
            sampler.set_weight(index, weight)
        for target in range(0, sum(weights) + 1):
            assert sampler.select(target) == linear_weighted_index(weights, target)

    def test_float_weights_agreement(self):
        rng = random.Random(7)
        for _ in range(30):
            size = rng.randrange(1, 50)
            weights = [max(1e-9, rng.random() * 5 - 0.15) for _ in range(size)]
            sampler = FenwickSampler(size)
            for index, weight in enumerate(weights):
                sampler.set_weight(index, weight)
            for _ in range(40):
                target = rng.random() * sampler.total()
                assert sampler.select(target) == linear_weighted_index(weights, target)

    def test_agreement_after_dynamic_updates(self):
        rng = random.Random(11)
        size = 40
        weights = [1] * size
        sampler = FenwickSampler(size)
        for index in range(size):
            sampler.set_weight(index, 1)
        for _ in range(300):
            index = rng.randrange(size)
            weight = rng.randrange(0, 9)
            weights[index] = weight
            sampler.set_weight(index, weight)
            if not any(weights):
                weights[index] = 1
                sampler.set_weight(index, 1)
            target = rng.random() * sum(weights)
            assert sampler.select(target) == linear_weighted_index(weights, target)

    def test_zero_target_skips_leading_zero_weights(self):
        # rng.random() can return exactly 0.0; the draw must still land on an
        # active index, like a scan over only the positive-weight candidates.
        sampler = FenwickSampler(6)
        sampler.set_weight(2, 3)
        sampler.set_weight(5, 1)
        assert sampler.select(0.0) == 2
        assert sampler.select(-0.0) == 2

    def test_zero_weight_indices_never_selected(self):
        sampler = FenwickSampler(10)
        sampler.set_weight(3, 5)
        sampler.set_weight(8, 2)
        rng = random.Random(0)
        assert {sampler.sample(rng) for _ in range(200)} == {3, 8}

    def test_sampling_proportional_to_weight(self):
        sampler = FenwickSampler(3)
        sampler.set_weight(0, 1)
        sampler.set_weight(1, 8)
        sampler.set_weight(2, 1)
        rng = random.Random(123)
        draws = [sampler.sample(rng) for _ in range(4000)]
        share = draws.count(1) / len(draws)
        assert 0.75 < share < 0.85

    def test_active_count_tracking(self):
        sampler = FenwickSampler(5)
        assert sampler.active_count == 0
        sampler.set_weight(2, 1.5)
        sampler.set_weight(4, 2)
        assert sampler.active_count == 2
        sampler.set_weight(2, 0)
        assert sampler.active_count == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            FenwickSampler(0)
        sampler = FenwickSampler(3)
        with pytest.raises(IndexError):
            sampler.set_weight(3, 1)
        with pytest.raises(ValueError):
            sampler.set_weight(0, -1)
        with pytest.raises(ValueError):
            sampler.sample(random.Random(0))

    def test_counters_increment(self):
        KERNEL_COUNTERS.reset()
        sampler = FenwickSampler(4)
        sampler.set_weight(1, 2)
        sampler.sample(random.Random(1))
        assert KERNEL_COUNTERS.sampler_updates == 1
        assert KERNEL_COUNTERS.sampler_draws == 1


class TestMultisetSampler:
    def test_matches_seed_idiom(self):
        """Same rng => same draws as indexing a plain list with randrange."""
        items = [0, 0, 1, 2, 2, 2]
        sampler = MultisetSampler(items)
        a, b = random.Random(5), random.Random(5)
        for _ in range(50):
            assert sampler.sample(a) == items[b.randrange(len(items))]

    def test_add_preserves_order(self):
        sampler = MultisetSampler([1])
        sampler.add(2)
        sampler.add(3, count=2)
        assert len(sampler) == 4
        assert sampler._items == [1, 2, 3, 3]

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            MultisetSampler().sample(random.Random(0))


class TestSkipSampling:
    def test_probability_one_yields_everything(self):
        assert list(skip_sampled_indices(7, 1.0, random.Random(0))) == list(range(7))

    def test_probability_zero_yields_nothing(self):
        assert list(skip_sampled_indices(7, 0.0, random.Random(0))) == []

    def test_indices_strictly_increasing_and_in_range(self):
        rng = random.Random(3)
        out = list(skip_sampled_indices(1000, 0.2, rng))
        assert out == sorted(set(out))
        assert all(0 <= i < 1000 for i in out)

    def test_expected_count(self):
        rng = random.Random(9)
        counts = [len(list(skip_sampled_indices(500, 0.1, rng))) for _ in range(200)]
        mean = sum(counts) / len(counts)
        # E = 50, sigma of the mean ~ 6.7/sqrt(200) ~ 0.47
        assert 48 < mean < 52

    def test_pairs_cover_the_triangle(self):
        pairs = list(skip_sampled_pairs(6, 1.0, random.Random(0)))
        expected = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        assert pairs == expected

    def test_pairs_min_gap(self):
        pairs = list(skip_sampled_pairs(6, 1.0, random.Random(0), min_gap=2))
        expected = [(i, j) for i in range(6) for j in range(i + 2, 6)]
        assert pairs == expected

    def test_pairs_empty_cases(self):
        assert list(skip_sampled_pairs(1, 0.5, random.Random(0))) == []
        assert list(skip_sampled_pairs(2, 0.5, random.Random(0), min_gap=2)) == []
        with pytest.raises(ValueError):
            list(skip_sampled_pairs(5, 0.5, random.Random(0), min_gap=0))


class TestLinearReference:
    def test_overrun_returns_last_index(self):
        assert linear_weighted_index([1.0, 2.0], 100.0) == 1

    def test_boundary_inclusive(self):
        # target exactly on a cumulative boundary selects that index.
        assert linear_weighted_index([1.0, 2.0, 3.0], 1.0) == 0
        assert linear_weighted_index([1.0, 2.0, 3.0], 3.0) == 1
        assert linear_weighted_index([1.0, 2.0, 3.0], 3.0000001) == 2
