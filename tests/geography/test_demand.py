"""Tests for repro.geography.demand."""

import pytest

from repro.geography.demand import (
    DemandMatrix,
    gravity_demand,
    uniform_demand,
)
from repro.geography.population import City


def sample_cities():
    return [
        City("metropolis", (0.0, 0.0), 1000.0),
        City("midtown", (1.0, 0.0), 500.0),
        City("hamlet", (10.0, 10.0), 10.0),
    ]


class TestDemandMatrix:
    def test_symmetric(self):
        matrix = DemandMatrix(endpoints=["a", "b"])
        matrix.set_demand("a", "b", 5.0)
        assert matrix.demand("b", "a") == 5.0

    def test_self_demand_zero_and_rejected(self):
        matrix = DemandMatrix(endpoints=["a", "b"])
        assert matrix.demand("a", "a") == 0.0
        with pytest.raises(ValueError):
            matrix.set_demand("a", "a", 1.0)

    def test_unknown_endpoint_rejected(self):
        matrix = DemandMatrix(endpoints=["a", "b"])
        with pytest.raises(KeyError):
            matrix.set_demand("a", "z", 1.0)

    def test_negative_demand_rejected(self):
        matrix = DemandMatrix(endpoints=["a", "b"])
        with pytest.raises(ValueError):
            matrix.set_demand("a", "b", -1.0)

    def test_duplicate_endpoints_rejected(self):
        with pytest.raises(ValueError):
            DemandMatrix(endpoints=["a", "a"])

    def test_total_and_outgoing(self):
        matrix = DemandMatrix(endpoints=["a", "b", "c"])
        matrix.set_demand("a", "b", 2.0)
        matrix.set_demand("a", "c", 3.0)
        assert matrix.total() == pytest.approx(5.0)
        assert matrix.outgoing("a") == pytest.approx(5.0)
        assert matrix.outgoing("b") == pytest.approx(2.0)

    def test_top_pairs(self):
        matrix = DemandMatrix(endpoints=["a", "b", "c"])
        matrix.set_demand("a", "b", 1.0)
        matrix.set_demand("b", "c", 9.0)
        top = matrix.top_pairs(1)
        assert len(top) == 1
        assert top[0][2] == 9.0

    def test_scaled(self):
        matrix = DemandMatrix(endpoints=["a", "b"])
        matrix.set_demand("a", "b", 2.0)
        assert matrix.scaled(2.5).demand("a", "b") == pytest.approx(5.0)


class TestFromArrays:
    def test_matches_set_demand(self):
        via_calls = DemandMatrix(endpoints=["a", "b", "c"])
        via_calls.set_demand("a", "b", 2.0)
        via_calls.set_demand("c", "a", 3.0)
        via_arrays = DemandMatrix.from_arrays(
            ["a", "b", "c"], [0, 2], [1, 0], [2.0, 3.0]
        )
        assert sorted(via_arrays.pairs()) == sorted(via_calls.pairs())
        assert via_arrays.demand("a", "c") == 3.0

    def test_keys_canonicalized(self):
        matrix = DemandMatrix.from_arrays(["b", "a"], [0], [1], [1.5])
        assert matrix.demand("a", "b") == 1.5
        assert matrix.demand("b", "a") == 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            DemandMatrix.from_arrays(["a", "b"], [0], [0], [1.0])
        with pytest.raises(ValueError):
            DemandMatrix.from_arrays(["a", "b"], [0], [1], [-1.0])
        with pytest.raises(ValueError):
            DemandMatrix.from_arrays(["a", "b"], [0, 1], [1], [1.0])
        with pytest.raises(ValueError):
            DemandMatrix.from_arrays(["a", "a"], [0], [1], [1.0])


class TestBoundaryValidation:
    """Every non-finite, negative or out-of-range input is rejected where it enters."""

    NAMES = ["a", "b", "c", "d"]

    @pytest.mark.parametrize("volume", [float("nan"), float("inf"), float("-inf")])
    def test_set_demand_rejects_non_finite_volume(self, volume):
        matrix = DemandMatrix(endpoints=self.NAMES)
        with pytest.raises(ValueError, match="volume must be finite"):
            matrix.set_demand("a", "d", volume)
        assert matrix.total() == 0.0

    @pytest.mark.parametrize("volume", [float("nan"), float("inf")])
    def test_from_arrays_rejects_non_finite_volume(self, volume):
        with pytest.raises(ValueError, match=r"volumes\[1\] must be finite"):
            DemandMatrix.from_arrays(self.NAMES, [0, 1], [3, 2], [1.0, volume])

    def test_from_arrays_rejects_negative_index(self):
        # A negative index would wrap around to the last endpoint.
        with pytest.raises(ValueError, match=r"sources\[0\] = -1"):
            DemandMatrix.from_arrays(self.NAMES, [-1], [0], [1.0])
        with pytest.raises(ValueError, match=r"targets\[0\] = -1"):
            DemandMatrix.from_arrays(self.NAMES, [0], [-1], [1.0])

    def test_from_arrays_rejects_index_past_the_end(self):
        with pytest.raises(ValueError, match=r"targets\[0\] = 4"):
            DemandMatrix.from_arrays(self.NAMES, [0], [4], [1.0])
        with pytest.raises(ValueError, match=r"sources\[0\] = 4"):
            DemandMatrix.from_arrays(self.NAMES, [4], [0], [1.0])

    @pytest.mark.parametrize("factor", [float("nan"), float("inf"), -1.0])
    def test_scaled_rejects_bad_factor(self, factor):
        matrix = DemandMatrix.from_arrays(self.NAMES, [0], [3], [2.0])
        with pytest.raises(ValueError, match="factor must be finite"):
            matrix.scaled(factor)


class TestGravityDemand:
    def test_total_volume_normalized(self):
        matrix = gravity_demand(sample_cities(), total_volume=100.0)
        assert matrix.total() == pytest.approx(100.0)

    def test_big_close_pair_dominates(self):
        matrix = gravity_demand(sample_cities(), total_volume=100.0)
        big_pair = matrix.demand("metropolis", "midtown")
        small_pair = matrix.demand("midtown", "hamlet")
        assert big_pair > small_pair

    def test_distance_exponent_zero_ignores_distance(self):
        cities = sample_cities()
        matrix = gravity_demand(cities, total_volume=1.0, distance_exponent=0.0)
        # With no distance dependence, the ratio equals the population product ratio.
        ratio = matrix.demand("metropolis", "midtown") / matrix.demand("metropolis", "hamlet")
        assert ratio == pytest.approx((1000 * 500) / (1000 * 10), rel=1e-6)

    def test_requires_two_cities(self):
        with pytest.raises(ValueError):
            gravity_demand(sample_cities()[:1])

    def test_colocated_cities_handled(self):
        cities = [
            City("a", (0.0, 0.0), 10.0),
            City("b", (0.0, 0.0), 20.0),
            City("c", (5.0, 5.0), 30.0),
        ]
        matrix = gravity_demand(cities, total_volume=10.0)
        assert matrix.total() == pytest.approx(10.0)
        assert matrix.demand("a", "b") > 0


class TestUniformDemand:
    def test_equal_split(self):
        matrix = uniform_demand(["a", "b", "c"], total_volume=30.0)
        assert matrix.demand("a", "b") == pytest.approx(10.0)
        assert matrix.total() == pytest.approx(30.0)

    def test_requires_two_endpoints(self):
        with pytest.raises(ValueError):
            uniform_demand(["only"])
