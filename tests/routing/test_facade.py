"""Tests for the routing façade: one entry point, one options vocabulary.

Covers the API-redesign contract of the routing package: every public
routing symbol is importable from ``repro.routing``, analysis entry points
consume :class:`~repro.routing.engine.FlowResult` uniformly (a bare load
column is rejected), stale results raise
:class:`~repro.topology.graph.TopologyError` instead of silently repricing,
and :class:`~repro.routing.options.RoutingOptions` validation names the bad
field.
"""

import importlib
import pkgutil

import pytest

import repro.routing
from repro.economics.cables import default_catalog
from repro.economics.provisioning import provision_topology
from repro.geography.demand import DemandMatrix
from repro.routing.engine import route_demand
from repro.routing.options import (
    ROUTING_BACKENDS,
    ROUTING_METHODS,
    ROUTING_MODES,
    RoutingOptions,
)
from repro.routing.utilization import load_concentration, utilization_report
from repro.topology.graph import Topology, TopologyError


def small_instance():
    topo = Topology()
    for name, loc in [("a", (0, 0)), ("b", (1, 0)), ("c", (2, 0)), ("d", (1, 1))]:
        topo.add_node(name, location=loc)
    for u, v in [("a", "b"), ("b", "c"), ("a", "d"), ("d", "c")]:
        topo.add_link(u, v)
    demand = DemandMatrix(endpoints=["a", "b", "c"])
    demand.set_demand("a", "c", 6.0)
    demand.set_demand("a", "b", 2.0)
    return topo, demand


class TestPublicSurface:
    def test_every_public_routing_symbol_reachable_from_package(self):
        """The façade contract: ``repro.routing`` re-exports the public API."""
        for module_name in ("engine", "temporal", "options", "hierarchical"):
            module = importlib.import_module(f"repro.routing.{module_name}")
            for symbol in module.__all__:
                if symbol.startswith("AUTO_"):
                    continue  # hierarchical tuning knobs stay module-level
                assert hasattr(repro.routing, symbol), (module_name, symbol)
                assert symbol in repro.routing.__all__, (module_name, symbol)

    def test_package_all_is_importable(self):
        """Every ``repro`` package and module's ``__all__`` resolves."""
        names = ["repro"] + [
            info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
        ]
        checked = []
        for name in names:
            module = importlib.import_module(name)
            if not hasattr(module, "__all__"):
                continue
            for symbol in module.__all__:
                assert hasattr(module, symbol), (name, symbol)
            exec(f"from {name} import *", {})
            checked.append(name)
        assert {"repro.routing", "repro.optimization", "repro.topology.compiled"} <= set(
            checked
        )


class TestRoutingOptions:
    def test_bad_field_values_name_the_field(self):
        with pytest.raises(ValueError, match="RoutingOptions.mode"):
            RoutingOptions(mode="all-paths")
        with pytest.raises(ValueError, match="RoutingOptions.method"):
            RoutingOptions(method="magic")
        with pytest.raises(ValueError, match="RoutingOptions.backend"):
            RoutingOptions(backend="fortran")
        with pytest.raises(ValueError, match="RoutingOptions.weight"):
            RoutingOptions(weight=3)

    def test_vocabulary_constants(self):
        assert RoutingOptions().mode in ROUTING_MODES
        assert RoutingOptions().method in ROUTING_METHODS
        assert RoutingOptions().backend in ROUTING_BACKENDS


class TestFlowResultConsumers:
    def test_utilization_report_accepts_flow_result(self):
        topo, demand = small_instance()
        flow = route_demand(topo, demand)
        provision_topology(topo, default_catalog(), flow=flow)
        report = utilization_report(topo, flow)
        assert report.total_load == pytest.approx(sum(flow.loads_list()))
        assert not report.overloaded_links

    def test_bare_loads_column_rejected(self):
        topo, demand = small_instance()
        column = route_demand(topo, demand).loads_list()
        with pytest.raises(TypeError, match="utilization_report"):
            utilization_report(topo, column)
        with pytest.raises(TypeError, match="load_concentration"):
            load_concentration(topo, 0.1, column)
        with pytest.raises(TypeError, match="provision_topology"):
            provision_topology(topo, default_catalog(), 1.0, 0.0, column)

    def test_stale_flow_result_rejected(self):
        topo, demand = small_instance()
        flow = route_demand(topo, demand)
        topo.add_link("b", "d")
        with pytest.raises(TopologyError, match="stale"):
            utilization_report(topo, flow)
        with pytest.raises(TopologyError, match="stale"):
            load_concentration(topo, flow=flow)
        with pytest.raises(TopologyError, match="stale"):
            provision_topology(topo, default_catalog(), flow=flow)
