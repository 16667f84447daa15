"""Tests for repro.core.objectives."""

import pytest

from repro.core.objectives import (
    CostObjective,
    ProfitObjective,
    served_customers,
    unserved_demand,
)
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
        objective = CostObjective(demand_penalty=0.0)
        value = objective.evaluate(served_star())
        assert value > 15.0  # 3 links at 5.0 plus equipment

    def test_unserved_demand_penalized(self):
        objective = CostObjective(demand_penalty=1000.0)
        base = objective.evaluate(served_star())
        with_missing = objective.evaluate(with_orphan(served_star()))
        assert with_missing >= base + 4000.0

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError):
            CostObjective(demand_penalty=-1.0)


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

