"""Tests for repro.geography.regions."""

import math
import random

import pytest

from repro.geography.regions import Region, metro_region, national_region, unit_square


class TestRegion:
    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            Region(width=0.0)
        with pytest.raises(ValueError):
            Region(height=-1.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="width"):
                Region(width=bad)
            with pytest.raises(ValueError, match="height"):
                Region(height=bad)
            with pytest.raises(ValueError, match="origin"):
                Region(origin=(bad, 0.0))
            with pytest.raises(ValueError, match="origin"):
                Region(origin=(0.0, bad))

    def test_area_and_center(self):
        region = Region(width=4.0, height=2.0, origin=(1.0, 1.0))
        assert region.center == pytest.approx((3.0, 2.0))

    def test_diagonal(self):
        region = Region(width=3.0, height=4.0)
        assert region.diagonal == pytest.approx(5.0)

    def test_contains(self):
        region = Region(width=2.0, height=2.0, origin=(1.0, 1.0))
        assert region.contains((2.0, 2.0))
        assert region.contains((1.0, 1.0))
        assert not region.contains((0.5, 2.0))

    def test_sample_uniform_inside(self):
        region = Region(width=10.0, height=5.0, origin=(-5.0, -5.0))
        points = region.sample_uniform(50, random.Random(1))
        assert all(region.contains(p) for p in points)

    def test_sample_clustered_inside(self):
        region = Region(width=10.0, height=5.0)
        points = region.sample_clustered(50, 3, random.Random(1))
        assert all(region.contains(p) for p in points)


class TestNamedRegions:
    def test_unit_square(self):
        region = unit_square()
        assert region.width == 1.0 and region.height == 1.0

    def test_metro_region(self):
        assert metro_region(size_km=30.0).width == 30.0

    def test_national_region_is_continental(self):
        region = national_region()
        assert region.width > 1000.0 and region.height > 1000.0
