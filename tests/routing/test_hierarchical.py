"""Tests for the hierarchical overlay routing engine.

The ``repro.routing.hierarchical`` contract (see its module docstring):

* **flat equivalence on tie-free weights**: Euclidean lengths make shortest
  paths unique almost surely, so the overlay joins pick the same paths as
  flat routing and integral volumes keep the edge-load vectors
  **bit-identical** — on both backends;
* with float volumes the loads agree to 1e-9 relative tolerance (sums
  associate differently across the up/across/down decomposition);
* the overlay is cached on the compiled snapshot per weight name and dies
  with it on the next ``Topology.version`` bump — mutations are never
  served stale tables;
* counters: one ``hier_overlay_builds`` per construction, one
  ``hier_table_joins`` per pair, ``hier_region_sweeps`` backend-independent;
* guards: single-path mode only, unknown ``method`` values rejected,
  ``OverlayTooLarge`` under a mesh cap;
* ``method="auto"`` engages the overlay only past the size/unique-source
  thresholds, and falls back to flat when the mesh exceeds its budget.

Every equivalence test runs on the pure-Python path too (it is the no-scipy
CI leg's only implementation), so nothing here silently requires scipy.
"""

import random

import pytest

import repro.routing.hierarchical as hierarchical
from repro.geography.demand import DemandMatrix
from repro.routing.engine import compile_demand, route_demand
from repro.routing.hierarchical import (
    OverlayTooLarge,
    build_overlay,
    overlay_for,
)
from repro.topology.compiled import KERNEL_COUNTERS, have_numpy_backend
from repro.topology.graph import Topology
from repro.topology.node import NodeRole

requires_numpy = pytest.mark.skipif(
    not have_numpy_backend(), reason="numpy/scipy backend unavailable or masked"
)

BACKENDS = ("python", "numpy") if have_numpy_backend() else ("python",)


def build_instance(
    num_nodes: int = 240,
    num_hubs: int = 6,
    seed: int = 17,
    integral_volumes: bool = True,
    annotate: bool = True,
):
    """Geometric tree + chords with an annotated two-level core.

    Euclidean lengths (the ``add_link`` default) make shortest paths unique
    almost surely; integral volumes then make the flat-vs-hierarchical load
    comparison exact in any accumulation order.  ``annotate=False`` leaves
    every node a customer, exercising the elected-core fallback.
    """
    rng = random.Random(seed)
    topo = Topology()
    for i in range(num_nodes):
        topo.add_node(i, location=(rng.random(), rng.random()))
    for i in range(1, num_nodes):
        topo.add_link(i, rng.randrange(i))
    added = 0
    while added < num_nodes // 3:
        u, v = rng.randrange(num_nodes), rng.randrange(num_nodes)
        if u != v and not topo.has_link(u, v):
            topo.add_link(u, v)
            added += 1
    if annotate:
        # Top-degree nodes become the core/backbone cell, like a real ISP.
        ranked = sorted(range(num_nodes), key=lambda i: -topo.degree(i))
        for node_id in ranked[:2]:
            topo.node(node_id).role = NodeRole.CORE
        for node_id in ranked[2:8]:
            topo.node(node_id).role = NodeRole.BACKBONE
    endpoints = list(range(num_nodes))
    sources, targets, volumes = [], [], []
    for hub in rng.sample(range(num_nodes), num_hubs):
        for other in range(num_nodes):
            if other != hub:
                sources.append(min(hub, other))
                targets.append(max(hub, other))
                volumes.append(
                    float(rng.randint(1, 16)) if integral_volumes else rng.uniform(0.1, 9.0)
                )
    demand = DemandMatrix.from_arrays(endpoints, sources, targets, volumes)
    return topo, compile_demand(topo, demand)


class TestFlatEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("annotate", [True, False])
    def test_bit_identical_loads_on_tie_free_weights(self, backend, annotate):
        _, compiled = build_instance(annotate=annotate)
        flat = route_demand(compiled, backend=backend, method="flat")
        hier = route_demand(compiled, method="hierarchical", backend=backend)
        assert hier.loads_list() == flat.loads_list()
        assert hier.routed_pairs == flat.routed_pairs
        assert hier.routed_volume == flat.routed_volume
        assert not hier.unrouted and not flat.unrouted

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_float_volumes_within_tolerance(self, backend):
        _, compiled = build_instance(integral_volumes=False, seed=29)
        flat = route_demand(compiled, backend=backend, method="flat")
        hier = route_demand(compiled, method="hierarchical", backend=backend)
        flat_loads = flat.loads_list()
        hier_loads = hier.loads_list()
        scale = max(1.0, max(flat_loads))
        assert max(
            abs(a - b) for a, b in zip(flat_loads, hier_loads)
        ) <= 1e-9 * scale

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bit_identical_loads_on_integral_weights(self, backend):
        # Tie-free *integral* lengths: huge random integers make exact ties
        # vanishingly unlikely and every distance sum exact, so loads must be
        # bitwise equal, not merely close.  The lengths are written before
        # any route builds the snapshot's length column.
        topo, compiled = build_instance(seed=41)
        rng = random.Random(97)
        for link in topo.links():
            link.length = float(rng.randint(1, 2**40))
        flat = route_demand(compiled, backend=backend, method="flat")
        hier = route_demand(compiled, method="hierarchical", backend=backend)
        assert hier.loads_list() == flat.loads_list()

    @pytest.mark.parametrize("seed", [3, 11, 47])
    def test_randomized_instances_python_backend(self, seed):
        _, compiled = build_instance(num_nodes=150, num_hubs=4, seed=seed)
        flat = route_demand(compiled, backend="python", method="flat")
        hier = route_demand(compiled, method="hierarchical", backend="python")
        assert hier.loads_list() == flat.loads_list()

    @requires_numpy
    def test_backends_agree_hierarchically(self):
        _, compiled = build_instance(seed=53)
        python_flow = route_demand(compiled, method="hierarchical", backend="python")
        numpy_flow = route_demand(compiled, method="hierarchical", backend="numpy")
        assert numpy_flow.loads_list() == python_flow.loads_list()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cross_component_pairs_unrouted(self, backend):
        topo, _ = build_instance(num_nodes=60, num_hubs=2, seed=5)
        # An island disconnected from the core: intra-island pairs route on
        # the region-restricted path, cross-component pairs do not route.
        topo.add_node(1000, location=(5.0, 5.0))
        topo.add_node(1001, location=(5.0, 6.0))
        topo.add_link(1000, 1001)
        demand = DemandMatrix.from_arrays(
            [1000, 1001, 0],
            [0, 0, 1],
            [1, 2, 2],
            [3.0, 2.0, 4.0],
        )
        compiled = compile_demand(topo, demand)
        flow = route_demand(compiled, method="hierarchical", backend=backend)
        flat = route_demand(compiled, backend=backend, method="flat")
        assert flow.routed_pairs == flat.routed_pairs == 1
        assert len(flow.unrouted) == len(flat.unrouted) == 2
        assert flow.loads_list() == flat.loads_list()


class TestOverlayCache:
    def test_overlay_cached_per_snapshot_and_invalidated_by_version_bump(self):
        topo, compiled = build_instance(num_nodes=120, num_hubs=3, seed=7)
        KERNEL_COUNTERS.reset()
        first = route_demand(compiled, method="hierarchical")
        assert KERNEL_COUNTERS.hier_overlay_builds == 1
        route_demand(compiled, method="hierarchical")
        # Second route on the same snapshot reuses the cached overlay.
        assert KERNEL_COUNTERS.hier_overlay_builds == 1

        # A structural mutation bumps Topology.version; the next compile
        # produces a fresh snapshot and the overlay rebuilds against it.
        version = topo.version
        topo.add_link(0, 57)
        assert topo.version > version
        recompiled = compile_demand(
            topo, DemandMatrix.from_arrays([0, 57], [0], [1], [10.0])
        )
        flow = route_demand(recompiled, method="hierarchical")
        assert KERNEL_COUNTERS.hier_overlay_builds == 2
        # The new shortcut edge carries the demand: loads reflect the
        # mutation instead of the stale tables.
        flat = route_demand(recompiled, method="flat")
        assert flow.loads_list() == flat.loads_list()

    def test_overlay_for_returns_same_object(self):
        topo, _ = build_instance(num_nodes=80, num_hubs=2)
        graph = topo.compiled()
        first = overlay_for(graph, None)
        assert overlay_for(graph, "length") is first
        assert overlay_for(graph, "hops") is not first

    def test_overlay_stats_shape(self):
        topo, _ = build_instance(num_nodes=80, num_hubs=2)
        stats = overlay_for(topo.compiled(), None).stats()
        assert stats["core_nodes"] >= 1
        assert stats["regions"] >= 1
        assert stats["overlay_nodes"] == stats["core_nodes"] + stats["border_nodes"]
        assert not stats["elected_core"]


class TestCounters:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_joins_count_pairs_and_sweeps_engage(self, backend):
        _, compiled = build_instance(num_nodes=140, num_hubs=3, seed=13)
        KERNEL_COUNTERS.reset()
        route_demand(compiled, method="hierarchical", backend=backend)
        counters = KERNEL_COUNTERS.snapshot()
        assert counters["hier_overlay_builds"] == 1
        assert counters["hier_table_joins"] == compiled.num_pairs
        assert counters["hier_region_sweeps"] >= 1
        assert counters["traffic_assigned_pairs"] == compiled.num_pairs
        # The overlay never batches per-source full-graph searches.
        assert counters["traffic_batched_sources"] == 0

    @requires_numpy
    def test_hier_counters_backend_independent(self):
        _, compiled = build_instance(num_nodes=140, num_hubs=3, seed=19)
        results = {}
        for backend in ("python", "numpy"):
            KERNEL_COUNTERS.reset()
            route_demand(compiled, method="hierarchical", backend=backend)
            results[backend] = KERNEL_COUNTERS.snapshot()
        for key in ("hier_overlay_builds", "hier_region_sweeps", "hier_table_joins"):
            assert results["python"][key] == results["numpy"][key], key


class TestGuards:
    def test_ecmp_mode_rejected(self):
        _, compiled = build_instance(num_nodes=40, num_hubs=2)
        with pytest.raises(ValueError, match="single-path"):
            route_demand(compiled, method="hierarchical", mode="ecmp")

    def test_unknown_method_rejected(self):
        _, compiled = build_instance(num_nodes=40, num_hubs=2)
        with pytest.raises(ValueError, match="unknown routing method"):
            route_demand(compiled, method="bogus")

    def test_mesh_cap_raises_overlay_too_large(self):
        topo, _ = build_instance(num_nodes=60, num_hubs=2)
        with pytest.raises(OverlayTooLarge):
            build_overlay(topo.compiled(), "length", mesh_cap=1)


class TestAutoDispatch:
    def test_small_graphs_stay_flat(self):
        _, compiled = build_instance(num_nodes=120, num_hubs=3)
        KERNEL_COUNTERS.reset()
        route_demand(compiled)
        assert KERNEL_COUNTERS.hier_table_joins == 0

    def test_auto_engages_past_thresholds(self, monkeypatch):
        # Shrink the thresholds instead of building a 20k-node instance.
        monkeypatch.setattr(hierarchical, "AUTO_MIN_NODES", 50)
        monkeypatch.setattr(hierarchical, "AUTO_MIN_UNIQUE_SOURCES", 4)
        _, compiled = build_instance(num_nodes=140, num_hubs=5, seed=31)
        KERNEL_COUNTERS.reset()
        auto = route_demand(compiled)
        counters = KERNEL_COUNTERS.snapshot()
        assert counters["hier_table_joins"] == compiled.num_pairs
        assert counters["traffic_batched_sources"] == 0
        flat = route_demand(compiled, method="flat")
        assert auto.loads_list() == flat.loads_list()

    def test_auto_falls_back_when_mesh_over_budget(self, monkeypatch):
        monkeypatch.setattr(hierarchical, "AUTO_MIN_NODES", 50)
        monkeypatch.setattr(hierarchical, "AUTO_MIN_UNIQUE_SOURCES", 4)
        monkeypatch.setattr(hierarchical, "AUTO_MESH_CELLS", 1)
        _, compiled = build_instance(num_nodes=140, num_hubs=5, seed=31)
        KERNEL_COUNTERS.reset()
        flow = route_demand(compiled)
        counters = KERNEL_COUNTERS.snapshot()
        # The cap rejects the overlay before any sweep; flat routing serves.
        assert counters["hier_table_joins"] == 0
        assert counters["hier_region_sweeps"] == 0
        assert counters["traffic_batched_sources"] > 0
        assert not flow.unrouted
