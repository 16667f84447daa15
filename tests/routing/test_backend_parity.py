"""Backend-equivalence tests for the vectorized traffic engine.

The ``route_demand`` contract (see the ``repro.routing.engine`` docstring):

* **single mode, tie-free weights** (Euclidean lengths, unique shortest
  paths): both backends load the same predecessor tree, so with integral
  volumes the edge-load vectors are **bit-identical** — sums of integers
  are exact in any accumulation order;
* **ECMP mode**: per-edge loads agree to 1e-9 and total volume-hops are
  conserved exactly (to 1e-9) between backends even under hop-weight ties,
  because every tied shortest path has the same hop count;
* **single mode under ties** is the documented divergence: scipy's
  predecessor tree may pick a different (equally shortest) tied optimum
  than the canonical Python kernel, so per-edge loads may differ while
  conserved totals still match — the reason E11 pins ``backend="python"``;
* the routed/unrouted accounting is backend-identical on any volumes:
  ``routed_volume`` to the bit, ``routed_pairs``, and the ``unrouted`` list
  in order (both backends run one per-source loop and tally sources in
  first-appearance order);
* traffic counters are backend-independent; the batch counters additionally
  record the numpy dispatches (and stay zero under python);
* explicit ``backend="numpy"`` never falls back silently: nonpositive
  weights raise :class:`ValueError`.
"""

import hashlib
import random
import struct
from array import array

import pytest

from repro.geography.demand import DemandMatrix
from repro.routing.engine import compile_demand, route_demand
from repro.topology.compiled import KERNEL_COUNTERS, have_numpy_backend
from repro.topology.graph import Topology

requires_numpy = pytest.mark.skipif(
    not have_numpy_backend(), reason="numpy/scipy backend unavailable or masked"
)


def build_instance(num_nodes: int = 220, num_hubs: int = 6, seed: int = 17):
    """Geometric tree + chords (Euclidean lengths) with integral volumes."""
    rng = random.Random(seed)
    topo = Topology()
    for i in range(num_nodes):
        topo.add_node(i, location=(rng.random(), rng.random()))
    for i in range(1, num_nodes):
        topo.add_link(i, rng.randrange(i))
    added = 0
    while added < num_nodes // 2:
        u, v = rng.randrange(num_nodes), rng.randrange(num_nodes)
        if u != v and not topo.has_link(u, v):
            topo.add_link(u, v)
            added += 1
    endpoints = list(range(num_nodes))
    sources, targets, volumes = [], [], []
    for hub in rng.sample(range(num_nodes), num_hubs):
        for other in range(num_nodes):
            if other != hub:
                sources.append(min(hub, other))
                targets.append(max(hub, other))
                volumes.append(float(rng.randint(1, 16)))
    demand = DemandMatrix.from_arrays(endpoints, sources, targets, volumes)
    return topo, compile_demand(topo, demand)


@requires_numpy
class TestLoadParity:
    def test_single_mode_bit_identical_on_tie_free_weights(self):
        _, compiled = build_instance()
        python_flow = route_demand(compiled, backend="python")
        numpy_flow = route_demand(compiled, backend="numpy")
        assert numpy_flow.loads_list() == python_flow.loads_list()
        assert numpy_flow.routed_volume == python_flow.routed_volume
        assert numpy_flow.routed_pairs == python_flow.routed_pairs
        assert not numpy_flow.unrouted and not python_flow.unrouted

    def test_ecmp_mode_within_tolerance_and_conserved(self):
        _, compiled = build_instance()
        python_flow = route_demand(compiled, weight="hops", mode="ecmp", backend="python")
        numpy_flow = route_demand(compiled, weight="hops", mode="ecmp", backend="numpy")
        python_loads = python_flow.loads_list()
        numpy_loads = numpy_flow.loads_list()
        scale = max(1.0, max(python_loads))
        assert max(
            abs(a - b) for a, b in zip(python_loads, numpy_loads)
        ) <= 1e-9 * scale
        # Equal-split shares conserve total volume-hops exactly.
        total_python = sum(python_loads)
        total_numpy = sum(numpy_loads)
        assert abs(total_python - total_numpy) <= 1e-9 * max(1.0, total_python)

    def test_single_mode_under_ties_conserves_totals(self):
        # The documented divergence: on unit hop weights the two backends may
        # route tied pairs over different (equally shortest) trees, so only
        # the conserved aggregates are comparable, not per-edge loads.
        _, compiled = build_instance(num_nodes=120, num_hubs=4, seed=23)
        python_flow = route_demand(compiled, weight="hops", backend="python")
        numpy_flow = route_demand(compiled, weight="hops", backend="numpy")
        assert numpy_flow.routed_volume == python_flow.routed_volume
        assert numpy_flow.routed_pairs == python_flow.routed_pairs
        # Same hop count on every tied path => identical volume-hops totals.
        total_python = sum(python_flow.loads_list())
        total_numpy = sum(numpy_flow.loads_list())
        assert abs(total_python - total_numpy) <= 1e-9 * max(1.0, total_python)


def accounting_instance():
    """Non-integral volumes, several sources per hub, and unreachable pairs.

    Nodes 40-42 form an island, so pairs touching it stay unrouted.  The
    hubs come in descending index order, so first-appearance and sorted
    source order disagree.
    """
    rng = random.Random(2024)
    topo = Topology(name="accounting")
    for i in range(43):
        topo.add_node(i, location=(rng.random(), rng.random()))
    for i in range(1, 40):
        topo.add_link(i, rng.randrange(i))
    topo.add_link(40, 41)
    topo.add_link(41, 42)
    added = 0
    while added < 20:
        u, v = rng.randrange(40), rng.randrange(40)
        if u != v and not topo.has_link(u, v):
            topo.add_link(u, v)
            added += 1
    sources, targets, volumes = [], [], []
    for hub in (37, 23, 11, 5):
        for other in rng.sample(range(43), 18):
            if other != hub:
                sources.append(hub)
                targets.append(other)
                volumes.append(rng.uniform(0.1, 10.0))
    demand = DemandMatrix.from_arrays(list(range(43)), sources, targets, volumes)
    return topo, compile_demand(topo, demand)


def load_hash(flow) -> str:
    return hashlib.sha256(array("d", flow.edge_loads).tobytes()).hexdigest()


#: SHA-256 of each backend's flat ``edge_loads`` on ``accounting_instance``.
#: The numpy path scatters sources in sorted order, so on non-integral
#: volumes its column differs from the python one in the last bits.
PINNED_ACCOUNTING_LOADS = {
    "python": "e156aea6a2b12f2c4d46ac414fe75eaa5575add1b4d2ea856abd6fc7c64f2356",
    "numpy": "2ca6535a6c8eb7ec2e80431aa881dc1f14656cdfe74ecd4cd0d6d83f79e22263",
}


class TestFlatAccounting:
    @requires_numpy
    def test_tally_identical_across_backends(self):
        _, compiled = accounting_instance()
        python_flow = route_demand(compiled, backend="python")
        numpy_flow = route_demand(compiled, backend="numpy")
        assert python_flow.unrouted, "the instance must strand some pairs"
        assert struct.pack("<d", numpy_flow.routed_volume) == struct.pack(
            "<d", python_flow.routed_volume
        )
        assert numpy_flow.routed_pairs == python_flow.routed_pairs
        assert numpy_flow.unrouted == python_flow.unrouted

    @pytest.mark.parametrize(
        "backend", ["python", pytest.param("numpy", marks=requires_numpy)]
    )
    def test_load_columns_pinned(self, backend):
        _, compiled = accounting_instance()
        flow = route_demand(compiled, backend=backend)
        assert load_hash(flow) == PINNED_ACCOUNTING_LOADS[backend]


@requires_numpy
class TestEngineCounters:
    def test_traffic_counters_backend_independent(self):
        _, compiled = build_instance()
        results = {}
        for backend in ("python", "numpy"):
            KERNEL_COUNTERS.reset()
            route_demand(compiled, backend=backend)
            results[backend] = KERNEL_COUNTERS.snapshot()
        for key in (
            "single_source",
            "traffic_batched_sources",
            "traffic_assigned_pairs",
            "traffic_ecmp_splits",
        ):
            assert results["python"][key] == results["numpy"][key], key
        assert results["python"]["batch_dijkstra_calls"] == 0
        assert results["numpy"]["batch_dijkstra_calls"] >= 1
        unique_sources = len(set(compiled.sources))
        assert results["numpy"]["batch_sources_total"] == unique_sources

    def test_ecmp_split_counts_match(self):
        _, compiled = build_instance()
        splits = {}
        for backend in ("python", "numpy"):
            KERNEL_COUNTERS.reset()
            route_demand(compiled, weight="hops", mode="ecmp", backend=backend)
            splits[backend] = KERNEL_COUNTERS.snapshot()["traffic_ecmp_splits"]
        assert splits["python"] == splits["numpy"] > 0


class TestExplicitBackendGuards:
    @pytest.mark.skipif(
        have_numpy_backend(), reason="covered only when scipy is masked"
    )
    def test_numpy_request_raises_when_masked(self):
        _, compiled = build_instance(num_nodes=30, num_hubs=2)
        with pytest.raises(RuntimeError, match="numpy backend requested"):
            route_demand(compiled, backend="numpy")
