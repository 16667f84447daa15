"""Tests for repro.economics.provisioning."""

import pytest

from repro.economics.cables import default_catalog
from repro.economics.provisioning import provision_topology
from repro.routing.utilization import utilization_report
from repro.topology.graph import Topology


def loaded_topology() -> Topology:
    topo = Topology()
    topo.add_node("a", location=(0, 0))
    topo.add_node("b", location=(1, 0))
    topo.add_node("c", location=(2, 0))
    topo.add_link("a", "b", load=40.0)
    topo.add_link("b", "c", load=700.0)
    return topo


class TestProvisionTopology:
    def test_capacity_covers_load(self):
        topo = loaded_topology()
        provision_topology(topo, default_catalog())
        for link in topo.links():
            assert link.capacity >= link.load

    def test_cable_names_assigned(self):
        topo = loaded_topology()
        provision_topology(topo, default_catalog())
        names = {c.name for c in default_catalog()}
        assert all(link.cable in names for link in topo.links())

    def test_bigger_load_gets_bigger_cable(self):
        topo = loaded_topology()
        provision_topology(topo, default_catalog())
        catalog = default_catalog()
        small = catalog.by_name(topo.link("a", "b").cable)
        big = catalog.by_name(topo.link("b", "c").cable)
        assert big.capacity >= small.capacity

    def test_unloaded_links_get_smallest_cable(self):
        topo = Topology()
        topo.add_node("a", location=(0, 0))
        topo.add_node("b", location=(1, 0))
        topo.add_link("a", "b")
        provision_topology(topo, default_catalog())
        assert topo.link("a", "b").cable == default_catalog().smallest.name

    def test_report_costs_match_topology(self):
        topo = loaded_topology()
        total_install = provision_topology(topo, default_catalog())
        assert total_install == pytest.approx(topo.total_install_cost())


class TestProvisioningHelpers:
    def test_provisioning_cost_does_not_mutate(self):
        # Pricing a candidate design provisions a copy; the input gets no cables.
        topo = loaded_topology()
        cost = provision_topology(topo.copy(), default_catalog())
        assert cost > 0
        assert all(link.capacity is None for link in topo.links())

    def test_capacity_violations(self):
        topo = Topology()
        topo.add_node("a")
        topo.add_node("b")
        link = topo.add_link("a", "b", capacity=10.0)
        link.load = 15.0
        report = utilization_report(topo)
        assert report.overloaded_links == [link.key]
        assert report.peak_utilization == pytest.approx(1.5)

    def test_peak_utilization(self):
        topo = Topology()
        topo.add_node("a")
        topo.add_node("b")
        topo.add_node("c")
        topo.add_link("a", "b", capacity=10.0, load=5.0)
        topo.add_link("b", "c", capacity=10.0, load=9.0)
        assert utilization_report(topo).peak_utilization == pytest.approx(0.9)

    def test_peak_utilization_none_without_capacities(self):
        topo = Topology()
        topo.add_node("a")
        topo.add_node("b")
        topo.add_link("a", "b")
        report = utilization_report(topo)
        assert report.total_capacity == 0.0
        assert report.peak_utilization == 0.0
        assert not any(report.utilization_histogram.values())
