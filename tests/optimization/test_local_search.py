"""Tests for repro.optimization.local_search."""

import math

import pytest

from repro.optimization.local_search import AnnealingSchedule


class TestAnnealingSchedule:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AnnealingSchedule(initial_temperature=0.0)
        with pytest.raises(ValueError):
            AnnealingSchedule(cooling_rate=1.0)
        with pytest.raises(ValueError):
            AnnealingSchedule(min_temperature=0.0)
        with pytest.raises(ValueError, match="initial_temperature"):
            AnnealingSchedule(initial_temperature=math.nan)
        with pytest.raises(ValueError, match="initial_temperature"):
            AnnealingSchedule(initial_temperature=math.inf)
        with pytest.raises(ValueError, match="cooling_rate"):
            AnnealingSchedule(cooling_rate=math.nan)
        with pytest.raises(ValueError, match="min_temperature"):
            AnnealingSchedule(min_temperature=math.nan)
        with pytest.raises(ValueError, match="min_temperature"):
            AnnealingSchedule(min_temperature=math.inf)

    def test_temperatures_decreasing(self):
        temps = AnnealingSchedule(initial_temperature=1.0, cooling_rate=0.9).temperatures(50)
        assert all(a > b for a, b in zip(temps, temps[1:]))

    def test_temperatures_capped(self):
        temps = AnnealingSchedule(cooling_rate=0.999999).temperatures(10)
        assert len(temps) == 10
