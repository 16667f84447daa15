"""Tests for repro.core.objectives."""

import pytest

from repro.core.objectives import (
    NODE_COSTS,
    PRICE_PER_UNIT,
    SUBSCRIPTION,
    UNSERVED_PENALTY,
    CostObjective,
    ProfitObjective,
    revenue,
    served_customers,
    unserved_demand,
)
from repro.economics.cables import default_catalog
from repro.topology.graph import Topology
from repro.topology.node import NodeRole


def served_star() -> Topology:
    topo = Topology()
    topo.add_node("core", role=NodeRole.CORE, location=(0, 0))
    for i in range(3):
        topo.add_node(f"c{i}", role=NodeRole.CUSTOMER, location=(1, i), demand=2.0)
        topo.add_link("core", f"c{i}", install_cost=5.0)
    return topo


def with_orphan(topology: Topology) -> Topology:
    topology.add_node("orphan", role=NodeRole.CUSTOMER, location=(9, 9), demand=4.0)
    return topology


class TestServedHelpers:
    def test_served_customers(self):
        topo = with_orphan(served_star())
        served = served_customers(topo)
        assert served == {"c0", "c1", "c2"}

    def test_unserved_demand(self):
        topo = with_orphan(served_star())
        assert unserved_demand(topo) == pytest.approx(4.0)


class TestCostObjective:
    def test_counts_link_and_node_costs(self):
        value = CostObjective().evaluate(served_star())
        assert value == 3 * 5.0 + NODE_COSTS[NodeRole.CORE]  # customers cost nothing

    def test_unserved_demand_penalized(self):
        objective = CostObjective()
        base = objective.evaluate(served_star())
        with_missing = objective.evaluate(with_orphan(served_star()))
        assert with_missing == base + UNSERVED_PENALTY * 4.0

    def test_annotated_links_use_their_costs(self):
        topo = Topology()
        topo.add_node("a", role=NodeRole.GENERIC)
        topo.add_node("b", role=NodeRole.GENERIC)
        link = topo.add_link("a", "b", install_cost=10.0, usage_cost=2.0, load=3.0)
        objective = CostObjective()
        assert objective.link_contribution(link) == (10.0, 6.0)
        assert objective.cost(topo) == 16.0

    def test_unannotated_links_priced_from_catalog(self):
        topo = Topology()
        topo.add_node("a", location=(0, 0), role=NodeRole.GENERIC)
        topo.add_node("b", location=(2, 0), role=NodeRole.GENERIC)
        link = topo.add_link("a", "b")
        link.load = 50.0
        catalog = default_catalog()
        install, usage = CostObjective(catalog).link_contribution(link)
        assert install == catalog.link_cost(50.0, 2.0)
        assert usage == 0.0


class TestProfitObjective:
    # evaluate() returns the negated profit; these tests negate it back.
    def test_more_customers_more_revenue(self):
        objective = ProfitObjective()
        small = served_star()
        large = served_star()
        large.add_node("extra", role=NodeRole.CUSTOMER, location=(0.5, 0.5), demand=2.0)
        large.add_link("core", "extra", install_cost=0.1)
        assert -objective.evaluate(large) > -objective.evaluate(small)

    def test_disconnected_customer_earns_nothing(self):
        objective = ProfitObjective()
        base = served_star()
        orphaned = with_orphan(served_star())
        # The orphan contributes no revenue and no cost, so profit is unchanged.
        assert -objective.evaluate(orphaned) == pytest.approx(-objective.evaluate(base))


class TestRevenue:
    def test_flat_plus_volume(self):
        assert revenue(5.0) == SUBSCRIPTION + 5.0 * PRICE_PER_UNIT == 15.0

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            revenue(-1.0)
