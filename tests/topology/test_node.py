"""Tests for repro.topology.node."""

import math

import pytest

from repro.topology.node import Node, NodeRole


class TestNode:
    def test_basic_construction(self):
        node = Node(node_id="r1", role=NodeRole.CORE, location=(1, 2))
        assert node.node_id == "r1"
        assert node.role == NodeRole.CORE
        assert node.location == (1.0, 2.0)

    def test_location_coerced_to_floats(self):
        node = Node(node_id=1, location=(3, 4))
        assert isinstance(node.location[0], float)
        assert isinstance(node.location[1], float)

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            Node(node_id=1, demand=-1.0)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            Node(node_id=1, capacity=-5.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["demand", "capacity"])
    def test_non_finite_values_rejected(self, field, bad):
        with pytest.raises(ValueError, match=field):
            Node(node_id=1, **{field: bad})

    @pytest.mark.parametrize(
        "location",
        [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)],
        ids=["nan_x", "inf_y", "neg_inf_x"],
    )
    def test_non_finite_location_rejected(self, location):
        with pytest.raises(ValueError, match="location"):
            Node(node_id=1, location=location)

    def test_zero_max_degree_rejected(self):
        with pytest.raises(ValueError):
            Node(node_id=1, max_degree=0)

    def test_round_trip_dict(self):
        node = Node(
            node_id="n1",
            role=NodeRole.DISTRIBUTION,
            location=(0.5, 0.25),
            capacity=100.0,
            demand=2.5,
            max_degree=8,
            city="gotham",
            attributes={"vendor": "acme"},
        )
        restored = Node.from_dict(node.to_dict())
        assert restored == node

    def test_from_dict_defaults(self):
        restored = Node.from_dict({"node_id": 7})
        assert restored.role == NodeRole.GENERIC
        assert restored.location is None
        assert restored.demand == 0.0
