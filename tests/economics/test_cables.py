"""Tests for repro.economics.cables."""

import math

import pytest

from repro.economics.cables import (
    CableCatalog,
    CableType,
    default_catalog,
    linear_catalog,
)


class TestCableType:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            CableType("x", capacity=0.0, install_cost=1.0, usage_cost=0.1)
        with pytest.raises(ValueError):
            CableType("x", capacity=1.0, install_cost=-1.0, usage_cost=0.1)
        with pytest.raises(ValueError):
            CableType("x", capacity=1.0, install_cost=1.0, usage_cost=-0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["capacity", "install_cost", "usage_cost"])
    def test_non_finite_parameters_rejected(self, name, bad):
        # An infinite capacity would install zero copies (no install cost),
        # and a NaN anywhere makes every later price NaN or an error.
        values = {"capacity": 100.0, "install_cost": 5.0, "usage_cost": 0.1}
        values[name] = bad
        with pytest.raises(ValueError, match=name):
            CableType("x", **values)

    def test_cost_for_flow_single_copy(self):
        cable = CableType("x", capacity=100.0, install_cost=5.0, usage_cost=0.1)
        assert cable.cost_for_flow(50.0) == pytest.approx(5.0 + 5.0)

    def test_cost_for_flow_multiple_copies(self):
        cable = CableType("x", capacity=100.0, install_cost=5.0, usage_cost=0.0)
        assert cable.cost_for_flow(250.0) == pytest.approx(15.0)

    def test_cost_for_zero_flow(self):
        cable = CableType("x", capacity=100.0, install_cost=5.0, usage_cost=0.1)
        assert cable.cost_for_flow(0.0) == 0.0

    def test_negative_flow_rejected(self):
        cable = CableType("x", capacity=100.0, install_cost=5.0, usage_cost=0.1)
        with pytest.raises(ValueError):
            cable.cost_for_flow(-1.0)


class TestCableCatalog:
    def test_default_catalog_satisfies_ordering(self):
        catalog = default_catalog()
        assert catalog.validate_economies_of_scale() == []
        capacities = [c.capacity for c in catalog]
        installs = [c.install_cost for c in catalog]
        usages = [c.usage_cost for c in catalog]
        assert capacities == sorted(capacities)
        assert installs == sorted(installs)
        assert usages == sorted(usages, reverse=True)

    def test_violating_catalog_rejected(self):
        bad = [
            CableType("small", capacity=10.0, install_cost=5.0, usage_cost=0.1),
            CableType("big", capacity=100.0, install_cost=1.0, usage_cost=0.2),
        ]
        with pytest.raises(ValueError):
            CableCatalog(bad)

    def test_empty_catalog_rejected(self):
        with pytest.raises(ValueError):
            CableCatalog([])

    def test_duplicate_names_rejected(self):
        cables = [
            CableType("x", capacity=10.0, install_cost=1.0, usage_cost=0.2),
            CableType("x", capacity=20.0, install_cost=2.0, usage_cost=0.1),
        ]
        with pytest.raises(ValueError):
            CableCatalog(cables)

    def test_by_name(self):
        catalog = default_catalog()
        assert catalog.by_name("OC-12").capacity == pytest.approx(622.0)
        with pytest.raises(KeyError):
            catalog.by_name("OC-768")

    def test_smallest_and_largest(self):
        catalog = default_catalog()
        assert catalog.smallest.capacity <= catalog.largest.capacity

    def test_best_cable_small_flow_prefers_small_cable(self):
        catalog = default_catalog()
        assert catalog.best_cable_for_flow(1.0).name == catalog.smallest.name

    def test_best_cable_large_flow_prefers_large_cable(self):
        catalog = default_catalog()
        big_flow = catalog.largest.capacity * 0.9
        best = catalog.best_cable_for_flow(big_flow)
        assert best.capacity >= 2000.0

    def test_cost_envelope_monotone_in_flow(self):
        catalog = default_catalog()
        costs = [catalog.cost_per_unit_length(f) for f in [1, 10, 100, 1000, 5000]]
        assert all(a <= b + 1e-9 for a, b in zip(costs, costs[1:]))

    def test_cost_envelope_subadditive(self):
        catalog = default_catalog()
        assert catalog.is_subadditive([1, 5, 20, 100, 400, 1500])

    def test_zero_flow_costs_nothing(self):
        assert default_catalog().cost_per_unit_length(0.0) == 0.0

    def test_link_cost_scales_with_length(self):
        catalog = default_catalog()
        assert catalog.link_cost(10.0, 4.0) == pytest.approx(4.0 * catalog.cost_per_unit_length(10.0))

    def test_link_cost_negative_length_rejected(self):
        with pytest.raises(ValueError):
            default_catalog().link_cost(1.0, -1.0)

    def test_provision_returns_enough_capacity(self):
        catalog = default_catalog()
        name, capacity, install_cost, usage_cost = catalog.installation(700.0, 2.0)
        cable = catalog.best_cable_for_flow(700.0)
        copies = math.ceil(700.0 / cable.capacity)
        assert name == cable.name
        assert capacity == cable.capacity * copies >= 700.0
        assert install_cost == cable.install_cost * copies * 2.0
        assert usage_cost == cable.usage_cost * 2.0

    def test_provision_zero_flow(self):
        catalog = default_catalog()
        smallest = catalog.smallest
        assert catalog.installation(0.0, 3.0) == (
            smallest.name,
            smallest.capacity,
            smallest.install_cost * 3.0,
            smallest.usage_cost * 3.0,
        )


class TestSpecialCatalogs:
    def test_linear_catalog_has_no_fixed_cost(self):
        catalog = linear_catalog(usage_cost=2.0)
        assert catalog.smallest.install_cost == 0.0
        assert catalog.cost_per_unit_length(10.0) == pytest.approx(20.0)
