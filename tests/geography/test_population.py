"""Tests for repro.geography.population."""

import random

import pytest

from repro.geography.population import (
    City,
    PopulationModel,
    synthetic_population,
    zipf_populations,
)
from repro.geography.regions import national_region, unit_square


class TestCity:
    def test_non_positive_population_rejected(self):
        with pytest.raises(ValueError):
            City(name="x", location=(0, 0), population=0.0)


class TestZipfPopulations:
    def test_rank_size_rule(self):
        pops = zipf_populations(5, largest_population=100.0, exponent=1.0)
        assert pops[0] == pytest.approx(100.0)
        assert pops[1] == pytest.approx(50.0)
        assert pops[4] == pytest.approx(20.0)

    def test_monotone_decreasing(self):
        pops = zipf_populations(20, exponent=0.8)
        assert all(a >= b for a, b in zip(pops, pops[1:]))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            zipf_populations(0)
        with pytest.raises(ValueError):
            zipf_populations(3, largest_population=0.0)
        with pytest.raises(ValueError):
            zipf_populations(3, exponent=-1.0)


class TestPopulationModel:
    def build(self) -> PopulationModel:
        region = unit_square()
        cities = [
            City("big", (0.2, 0.2), 1000.0, is_major=True),
            City("mid", (0.8, 0.8), 500.0),
            City("small", (0.5, 0.9), 100.0),
        ]
        return PopulationModel(region=region, cities=cities)

    def test_duplicate_names_rejected(self):
        region = unit_square()
        cities = [City("a", (0, 0), 1.0), City("a", (1, 1), 2.0)]
        with pytest.raises(ValueError):
            PopulationModel(region=region, cities=cities)

    def test_total_population(self):
        assert self.build().total_population == pytest.approx(1600.0)

    def test_lookup_and_missing(self):
        model = self.build()
        assert model.city("mid").population == 500.0
        with pytest.raises(KeyError):
            model.city("ghost")

    def test_largest(self):
        model = self.build()
        assert [c.name for c in model.largest(2)] == ["big", "mid"]

    def test_sample_city_proportional_to_population(self):
        model = self.build()
        rng = random.Random(0)
        counts = {"big": 0, "mid": 0, "small": 0}
        for _ in range(2000):
            counts[model.sample_city(rng).name] += 1
        assert counts["big"] > counts["mid"] > counts["small"]


class TestSyntheticPopulation:
    def test_city_count_and_names_unique(self):
        model = synthetic_population(national_region(), 25, seed=3)
        assert len(model.cities) == 25
        assert len({c.name for c in model.cities}) == 25

    def test_deterministic_with_seed(self):
        a = synthetic_population(national_region(), 10, seed=5)
        b = synthetic_population(national_region(), 10, seed=5)
        assert [c.location for c in a.cities] == [c.location for c in b.cities]

    def test_populations_follow_zipf_order(self):
        model = synthetic_population(national_region(), 15, seed=1)
        pops = [c.population for c in model.cities]
        assert all(a >= b for a, b in zip(pops, pops[1:]))

    def test_major_fraction(self):
        model = synthetic_population(national_region(), 20, seed=2, major_fraction=0.25)
        assert sum(c.is_major for c in model.cities) == 5

    def test_cities_inside_region(self):
        region = national_region()
        model = synthetic_population(region, 30, seed=4)
        assert all(region.contains(c.location) for c in model.cities)
