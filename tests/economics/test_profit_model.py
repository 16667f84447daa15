"""Tests for repro.economics.profit_model."""

import pytest

from repro.economics.profit_model import RevenueModel


class TestRevenueModel:
    def test_flat_plus_volume(self):
        model = RevenueModel(subscription=10.0, price_per_unit=2.0)
        assert model.revenue_for_demand(5.0) == pytest.approx(20.0)

    def test_discount_above_threshold(self):
        model = RevenueModel(
            subscription=0.0,
            price_per_unit=1.0,
            discount_threshold=10.0,
            discounted_price_per_unit=0.5,
        )
        assert model.revenue_for_demand(20.0) == pytest.approx(10.0 + 5.0)

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            RevenueModel().revenue_for_demand(-1.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RevenueModel(subscription=-1.0)
        with pytest.raises(ValueError):
            RevenueModel(discount_threshold=0.0)
