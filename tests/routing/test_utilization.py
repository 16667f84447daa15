"""Tests for repro.routing.utilization."""

import pytest

from repro.routing.utilization import (
    load_concentration,
    utilization_bin,
    utilization_report,
)
from repro.topology.graph import Topology


def loaded_topology() -> Topology:
    topo = Topology()
    for n in "abcd":
        topo.add_node(n)
    topo.add_link("a", "b", capacity=100.0, load=50.0)
    topo.add_link("b", "c", capacity=100.0, load=90.0)
    topo.add_link("c", "d", capacity=10.0, load=20.0)  # overloaded
    topo.add_link("a", "d", load=5.0)  # no capacity annotation
    return topo


class TestUtilizationReport:
    def test_mean_and_peak(self):
        report = utilization_report(loaded_topology())
        assert report.mean_utilization == pytest.approx((0.5 + 0.9 + 2.0) / 3)
        assert report.peak_utilization == pytest.approx(2.0)

    def test_overloaded_links_detected(self):
        report = utilization_report(loaded_topology())
        assert len(report.overloaded_links) == 1

    def test_totals(self):
        report = utilization_report(loaded_topology())
        assert report.total_load == pytest.approx(165.0)
        assert report.total_capacity == pytest.approx(210.0)

    def test_histogram_counts_links_with_capacity(self):
        report = utilization_report(loaded_topology())
        assert sum(report.utilization_histogram.values()) == 3

    def test_empty_topology(self):
        report = utilization_report(Topology())
        assert report.mean_utilization == 0.0
        assert report.peak_utilization == 0.0

    def test_loaded_zero_capacity_link_counts_as_overloaded(self):
        """A loaded link with zero installed capacity is an overload, not a
        link to skip silently; it stays out of the ratio statistics."""
        topo = Topology()
        topo.add_node("a")
        topo.add_node("b")
        # Link construction rejects capacity<=0; a zero-capacity link arises
        # from later annotation (e.g. decommissioning a cable).
        topo.add_link("a", "b", load=5.0).capacity = 0.0
        report = utilization_report(topo)
        assert report.overloaded_links == [("a", "b")]
        assert report.mean_utilization == 0.0
        assert report.total_capacity == 0.0
        assert sum(report.utilization_histogram.values()) == 0

    def test_idle_zero_capacity_link_not_overloaded(self):
        topo = Topology()
        topo.add_node("a")
        topo.add_node("b")
        topo.add_link("a", "b", load=0.0).capacity = 0.0
        report = utilization_report(topo)
        assert report.overloaded_links == []


class TestUtilizationBin:
    def test_bin_lower_edges_are_half_open(self):
        assert utilization_bin(0.0) == 0.0
        assert utilization_bin(0.0999) == 0.0
        assert utilization_bin(0.1) == 0.1
        assert utilization_bin(0.85) == 0.8

    def test_overflow_lands_in_last_bin(self):
        assert utilization_bin(0.9) == 0.9
        assert utilization_bin(1.0) == 0.9
        assert utilization_bin(2.5) == 0.9

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            utilization_bin(-0.1)

    def test_histogram_uses_the_bin_keys(self):
        topo = Topology()
        for name in "abc":
            topo.add_node(name)
        topo.add_link("a", "b", capacity=100.0, load=15.0)  # 0.1 bin
        topo.add_link("b", "c", capacity=10.0, load=25.0)  # overflow bin
        histogram = utilization_report(topo).utilization_histogram
        assert histogram[0.1] == 1
        assert histogram[0.9] == 1
        assert sum(histogram.values()) == 2


class TestLoadHelpers:

    def test_load_concentration(self):
        concentration = load_concentration(loaded_topology(), top_fraction=0.25)
        assert concentration == pytest.approx(90.0 / 165.0)

    def test_load_concentration_no_traffic(self):
        topo = Topology()
        topo.add_node("a")
        topo.add_node("b")
        topo.add_link("a", "b")
        assert load_concentration(topo) == 0.0

    def test_load_concentration_invalid_fraction(self):
        with pytest.raises(ValueError):
            load_concentration(loaded_topology(), top_fraction=0.0)
