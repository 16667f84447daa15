"""Tests for repro.topology.link."""

import math

import pytest

from repro.topology.link import Link, edge_key


class TestEdgeKey:
    def test_symmetric(self):
        assert edge_key("a", "b") == edge_key("b", "a")

    def test_mixed_types(self):
        assert edge_key(1, "a") == edge_key("a", 1)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            edge_key("a", "a")


class TestLink:
    def test_basic_construction(self):
        link = Link(source="a", target="b", capacity=100.0, length=2.0)
        assert link.capacity == 100.0
        assert link.length == 2.0

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Link(source="a", target="a")

    def test_non_positive_capacity_rejected(self):
        with pytest.raises(ValueError):
            Link(source="a", target="b", capacity=0.0)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            Link(source="a", target="b", length=-1.0)

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            Link(source="a", target="b", install_cost=-1.0)
        with pytest.raises(ValueError):
            Link(source="a", target="b", usage_cost=-0.5)

    def test_negative_load_rejected(self):
        with pytest.raises(ValueError):
            Link(source="a", target="b", load=-2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "field", ["length", "capacity", "install_cost", "usage_cost", "load"]
    )
    def test_non_finite_values_rejected(self, field, bad):
        with pytest.raises(ValueError, match=field):
            Link(source="a", target="b", **{field: bad})

    def test_key_matches_edge_key(self):
        link = Link(source="z", target="a")
        assert link.key == edge_key("z", "a")

    def test_other_end(self):
        link = Link(source="a", target="b")
        assert link.other_end("a") == "b"
        assert link.other_end("b") == "a"

    def test_other_end_unknown_node(self):
        link = Link(source="a", target="b")
        with pytest.raises(ValueError):
            link.other_end("c")

    def test_round_trip_dict(self):
        link = Link(
            source="a",
            target="b",
            capacity=155.0,
            length=3.5,
            cable="OC-3",
            install_cost=7.0,
            usage_cost=0.1,
            load=20.0,
            attributes={"fiber": "dark"},
        )
        restored = Link.from_dict(link.to_dict())
        assert restored == link
