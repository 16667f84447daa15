"""Tests for repro.core.constraints."""

import pytest

from repro.core.constraints import (
    CapacityConstraint,
    ConstraintSet,
    DegreeConstraint,
    default_router_constraints,
)
from repro.topology.graph import Topology
from repro.topology.node import NodeRole


def hub_topology(leaves: int = 5) -> Topology:
    topo = Topology()
    topo.add_node("hub", role=NodeRole.ACCESS, location=(0, 0))
    for i in range(leaves):
        topo.add_node(f"l{i}", role=NodeRole.CUSTOMER, location=(1, i))
        topo.add_link("hub", f"l{i}")
    return topo


class TestDegreeConstraint:
    def test_violation_detected(self):
        constraint = DegreeConstraint(max_degree=3)
        assert not constraint.is_satisfied(hub_topology(5))
        assert constraint.is_satisfied(hub_topology(3))

    def test_per_role_override(self):
        constraint = DegreeConstraint(max_degree=3, per_role={NodeRole.ACCESS: 10})
        assert constraint.is_satisfied(hub_topology(5))

    def test_allows_link(self):
        constraint = DegreeConstraint(max_degree=5)
        topo = hub_topology(5)
        topo.add_node("new", role=NodeRole.CUSTOMER, location=(2, 2))
        assert not constraint.allows_link(topo, "hub", "new")
        assert constraint.allows_link(topo, "l0", "new")

    def test_invalid_limits_rejected(self):
        with pytest.raises(ValueError):
            DegreeConstraint(max_degree=0)
        with pytest.raises(ValueError):
            DegreeConstraint(per_role={NodeRole.CORE: 0})


class TestCapacityConstraint:
    def test_overload_detected(self):
        topo = Topology()
        topo.add_node("a")
        topo.add_node("b")
        link = topo.add_link("a", "b", capacity=10.0)
        link.load = 20.0
        assert not CapacityConstraint().is_satisfied(topo)
        link.load = 5.0
        assert CapacityConstraint().is_satisfied(topo)

    def test_always_allows_new_links(self, triangle_topology):
        assert CapacityConstraint().allows_link(triangle_topology, "a", "b")


class TestConstraintSet:
    def test_combines_violations(self):
        topo = hub_topology(6)
        topo.add_node("far", location=(100, 100), role=NodeRole.CUSTOMER)
        topo.add_link("l0", "far", capacity=1.0).load = 5.0
        constraints = ConstraintSet(
            constraints=[DegreeConstraint(max_degree=3), CapacityConstraint()]
        )
        violations = constraints.violations(topo)
        assert len(violations) >= 2
        assert not constraints.is_satisfied(topo)

    def test_allows_link_requires_all(self):
        topo = hub_topology(3)
        topo.add_node("far", location=(100, 100), role=NodeRole.CUSTOMER)
        constraints = ConstraintSet(
            constraints=[DegreeConstraint(max_degree=3), CapacityConstraint()]
        )
        assert CapacityConstraint().allows_link(topo, "hub", "far")
        assert not constraints.allows_link(topo, "hub", "far")
        assert constraints.allows_link(topo, "l0", "far")

    def test_default_router_constraints_accept_reasonable_designs(self, star_topology):
        assert default_router_constraints().is_satisfied(star_topology)
