"""Tests for repro.economics.cost_model."""

import pytest

from repro.economics.cables import default_catalog
from repro.economics.cost_model import DEFAULT_NODE_COSTS, CostBreakdown, CostModel
from repro.topology.graph import Topology
from repro.topology.node import NodeRole


class TestCostBreakdown:
    def test_total(self):
        breakdown = CostBreakdown(link_install=10.0, link_usage=5.0, node_equipment=2.0)
        assert breakdown.total == pytest.approx(17.0)


class TestCostModel:
    def test_annotated_links_use_their_costs(self):
        topo = Topology()
        topo.add_node("a", role=NodeRole.GENERIC)
        topo.add_node("b", role=NodeRole.GENERIC)
        topo.add_link("a", "b", install_cost=10.0, usage_cost=2.0, load=3.0)
        breakdown = CostModel().evaluate(topo)
        assert breakdown.link_install == pytest.approx(10.0)
        assert breakdown.link_usage == pytest.approx(6.0)

    def test_unannotated_links_priced_from_catalog(self):
        topo = Topology()
        topo.add_node("a", location=(0, 0), role=NodeRole.GENERIC)
        topo.add_node("b", location=(2, 0), role=NodeRole.GENERIC)
        link = topo.add_link("a", "b")
        link.load = 50.0
        catalog = default_catalog()
        breakdown = CostModel(catalog=catalog).evaluate(topo)
        assert breakdown.link_install == pytest.approx(catalog.link_cost(50.0, 2.0))

    def test_node_equipment_costs_by_role(self):
        topo = Topology()
        topo.add_node("core", role=NodeRole.CORE)
        topo.add_node("cust", role=NodeRole.CUSTOMER)
        breakdown = CostModel().evaluate(topo)
        assert breakdown.node_equipment == pytest.approx(
            DEFAULT_NODE_COSTS[NodeRole.CORE] + DEFAULT_NODE_COSTS[NodeRole.CUSTOMER]
        )

    def test_fiber_cost_per_length(self):
        topo = Topology()
        topo.add_node("a", location=(0, 0), role=NodeRole.GENERIC)
        topo.add_node("b", location=(3, 4), role=NodeRole.GENERIC)
        topo.add_link("a", "b", install_cost=1.0)
        model = CostModel(fiber_cost_per_length=2.0, node_costs={})
        breakdown = model.evaluate(topo)
        assert breakdown.link_install == pytest.approx(1.0 + 2.0 * 5.0)

    def test_total_cost_matches_breakdown(self):
        topo = Topology()
        topo.add_node("a", role=NodeRole.CORE)
        topo.add_node("b", role=NodeRole.CUSTOMER)
        topo.add_link("a", "b", install_cost=4.0)
        model = CostModel()
        assert model.total_cost(topo) == pytest.approx(model.evaluate(topo).total)
