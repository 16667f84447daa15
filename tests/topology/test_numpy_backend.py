"""Property tests for the numpy batch backend of the compiled kernels.

The contract under test (see the ``repro.topology.compiled`` docstring):

* distances are **bit-identical** between backends on integral weight
  columns and agree to 1e-9 otherwise (in practice they are bit-identical
  there too — both backends take float minima over the same relaxation
  sums — so the tolerance is slack, not an expected error);
* hop counts, component labels, and nearest-source maps are exact integers
  and must match exactly, including the canonical first-node-order
  component labelling;
* the batch counters (``batch_dijkstra_calls``/``batch_sources_total``)
  prove which path ran: engaged under the numpy backend, untouched under
  the python backend — so CI can assert no silent fallback;
* the named weight columns and their derived ``csr_matrix`` are cached per
  snapshot, while annotation-dependent columns bypass the cache.

Every numpy-path test skips (visibly) when scipy is masked — the
``REPRO_BACKEND=python`` CI leg runs only the backend-selection tests plus
the pure-Python sides of the parity pairs.
"""

import math
import random

import pytest

from repro.topology.compiled import (
    DEFAULT_BACKEND,
    KERNEL_COUNTERS,
    SMALL_GRAPH_NODES,
    CompiledGraph,
    batch_hop_lengths,
    batch_shortest_lengths,
    components_indices,
    have_numpy_backend,
    multi_source_bfs_indices,
    multi_source_dijkstra_indices,
    resolve_backend,
)
from repro.topology.graph import Topology

requires_numpy = pytest.mark.skipif(
    not have_numpy_backend(), reason="numpy/scipy backend unavailable or masked"
)

#: Large enough that every SMALL_GRAPH_NODES-gated kernel takes its numpy path.
LARGE = SMALL_GRAPH_NODES + 88


def random_topology(
    num_nodes: int,
    seed: int = 7,
    integral: bool = False,
    isolated: int = 0,
) -> Topology:
    """Random tree + chords; optionally integral lengths / isolated tail nodes."""
    rng = random.Random(seed)
    topo = Topology()
    for i in range(num_nodes):
        topo.add_node(i)
    connected = num_nodes - isolated

    def length() -> float:
        return float(rng.randint(1, 9)) if integral else rng.uniform(0.1, 2.0)

    for i in range(1, connected):
        topo.add_link(i, rng.randrange(i), length=length())
    added = 0
    while added < connected // 3:
        u, v = rng.randrange(connected), rng.randrange(connected)
        if u != v and not topo.has_link(u, v):
            topo.add_link(u, v, length=length())
            added += 1
    return topo


def sample_sources(graph: CompiledGraph, count: int, seed: int = 13):
    return random.Random(seed).sample(range(graph.num_nodes), count)


class TestBackendSelection:
    def test_auto_resolves_to_default(self):
        assert resolve_backend(None) == DEFAULT_BACKEND
        assert resolve_backend("auto") == DEFAULT_BACKEND

    def test_python_always_available(self):
        assert resolve_backend("python") == "python"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("fortran")

    def test_default_matches_availability(self):
        assert DEFAULT_BACKEND == ("numpy" if have_numpy_backend() else "python")

    @pytest.mark.skipif(
        have_numpy_backend(), reason="covered only when scipy is masked"
    )
    def test_numpy_request_raises_when_masked(self):
        # No silent fallback: an explicit backend="numpy" must fail loudly
        # on the no-scipy leg, not quietly run the pure-Python kernel.
        with pytest.raises(RuntimeError, match="numpy backend requested"):
            resolve_backend("numpy")


@requires_numpy
class TestNativeBuffers:
    def test_csr_buffer_dtypes(self):
        import numpy as np

        graph = random_topology(40).compiled()
        assert isinstance(graph.indptr, np.ndarray) and graph.indptr.dtype == np.int32
        assert isinstance(graph.indices, np.ndarray) and graph.indices.dtype == np.int32
        assert graph.half_edge_ids.dtype == np.int64
        assert graph.edge_u.dtype == np.int32
        assert graph.edge_v.dtype == np.int32

    def test_weight_columns_are_float64(self):
        import numpy as np

        graph = random_topology(40).compiled()
        for name in (None, "length", "hops"):
            column = graph.edge_weight_column(name)
            assert isinstance(column, np.ndarray) and column.dtype == np.float64
            assert len(column) == graph.num_edges


@requires_numpy
class TestColumnAndCsrCaching:
    def test_named_columns_cached_per_snapshot(self):
        graph = random_topology(40).compiled()
        assert graph.edge_weight_column("length") is graph.edge_weight_column("length")
        assert graph.edge_weight_column("hops") is graph.edge_weight_column("hops")
        # None aliases the default length column.
        assert graph.edge_weight_column(None) is graph.edge_weight_column("length")

    def test_annotation_dependent_columns_bypass_cache(self):
        # "inverse-capacity" depends on link annotations, which mutate
        # without bumping Topology.version — caching it would serve stale
        # weights after provisioning.
        topo = random_topology(40)
        graph = topo.compiled()
        weight = lambda link: 1.0 / link.capacity if link.capacity else 1.0  # noqa: E731
        first = graph.edge_weight_column("inverse-capacity", weight)
        next(iter(topo.links())).capacity = 1024.0
        second = graph.edge_weight_column("inverse-capacity", weight)
        assert first is not second
        assert list(first) != list(second)

    def test_csr_cached_by_column_identity(self):
        graph = random_topology(40).compiled()
        column = graph.edge_weight_column("length")
        assert graph.scipy_csr(column) is graph.scipy_csr(column)
        # A fresh (equal-valued) column object is a cache miss by design.
        other = graph.edge_weights(None)
        assert graph.scipy_csr(other) is not graph.scipy_csr(column)

    def test_csr_values_match_links(self):
        topo = random_topology(30, integral=True)
        graph = topo.compiled()
        matrix = graph.scipy_csr(graph.edge_weight_column("length"))
        for link in topo.links():
            u = graph.index_of[link.source]
            v = graph.index_of[link.target]
            assert matrix[u, v] == link.length
            assert matrix[v, u] == link.length


@requires_numpy
class TestDistanceParity:
    def test_integral_weights_bit_identical(self):
        graph = random_topology(LARGE, integral=True).compiled()
        weights = graph.edge_weight_column("length")
        sources = sample_sources(graph, 24)
        python_rows = batch_shortest_lengths(graph, sources, weights, backend="python")
        numpy_rows = batch_shortest_lengths(graph, sources, weights, backend="numpy")
        assert numpy_rows == python_rows

    def test_float_weights_within_tolerance(self):
        graph = random_topology(LARGE).compiled()
        weights = graph.edge_weight_column("length")
        sources = sample_sources(graph, 24)
        python_rows = batch_shortest_lengths(graph, sources, weights, backend="python")
        numpy_rows = batch_shortest_lengths(graph, sources, weights, backend="numpy")
        for py_row, np_row in zip(python_rows, numpy_rows):
            for a, b in zip(py_row, np_row):
                assert a == b or abs(a - b) <= 1e-9

    def test_unreachable_nodes_are_inf_in_both(self):
        graph = random_topology(LARGE, isolated=5).compiled()
        weights = graph.edge_weight_column("length")
        for backend in ("python", "numpy"):
            row = batch_shortest_lengths(graph, [0], weights, backend=backend)[0]
            assert sum(1 for d in row if math.isinf(d)) == 5

    def test_multi_source_distances_parity(self):
        # The python multi-source search against the per-node minimum over
        # the numpy backend's batched single-source rows.
        graph = random_topology(LARGE, isolated=3).compiled()
        weights = graph.edge_weight_column("length")
        sources = sample_sources(graph, 9)
        python_dist = multi_source_dijkstra_indices(graph, sources, weights)[0]
        numpy_rows = batch_shortest_lengths(graph, sources, weights, backend="numpy")
        numpy_dist = [min(column) for column in zip(*numpy_rows)]
        for a, b in zip(python_dist, numpy_dist):
            assert a == b or abs(a - b) <= 1e-9

    def test_hop_rows_exact(self):
        graph = random_topology(LARGE, isolated=4).compiled()
        sources = sample_sources(graph, 16)
        assert batch_hop_lengths(graph, sources, backend="numpy") == batch_hop_lengths(
            graph, sources, backend="python"
        )

    def test_multi_source_bfs_exact(self):
        graph = random_topology(LARGE, isolated=4).compiled()
        sources = sample_sources(graph, 7)
        assert multi_source_bfs_indices(
            graph, sources, backend="numpy"
        ) == multi_source_bfs_indices(graph, sources, backend="python")

    def test_components_exact_and_canonical(self):
        # 3 isolated tail nodes -> 4 components; labels must be assigned in
        # first-node order under both backends (scipy's arbitrary labels are
        # re-canonicalized).
        graph = random_topology(LARGE, isolated=3).compiled()
        python_labels, python_count = components_indices(graph, backend="python")
        numpy_labels, numpy_count = components_indices(graph, backend="numpy")
        assert numpy_count == python_count == 4
        assert numpy_labels == python_labels
        assert python_labels[0] == 0  # first node carries the first label


@requires_numpy
class TestBatchCounters:
    def test_numpy_batch_engages_and_counts_sources(self):
        graph = random_topology(LARGE, integral=True).compiled()
        weights = graph.edge_weight_column("length")
        sources = sample_sources(graph, 12)
        KERNEL_COUNTERS.reset()
        batch_shortest_lengths(graph, sources, weights, backend="numpy")
        counters = KERNEL_COUNTERS.snapshot()
        assert counters["batch_dijkstra_calls"] >= 1
        assert counters["batch_sources_total"] == len(sources)
        # The algorithm-count contract is backend-independent.
        assert counters["single_source"] == len(sources)

    def test_python_backend_never_touches_batch_counters(self):
        graph = random_topology(LARGE, integral=True).compiled()
        weights = graph.edge_weight_column("length")
        sources = sample_sources(graph, 12)
        KERNEL_COUNTERS.reset()
        batch_shortest_lengths(graph, sources, weights, backend="python")
        batch_hop_lengths(graph, sources, backend="python")
        counters = KERNEL_COUNTERS.snapshot()
        assert counters["batch_dijkstra_calls"] == 0
        assert counters["batch_sources_total"] == 0
        assert counters["single_source"] == len(sources)

    def test_small_graphs_stay_python_for_integer_kernels(self):
        # Below SMALL_GRAPH_NODES the exact-integer kernels skip scipy:
        # dispatch overhead exceeds the work saved, results identical.
        graph = random_topology(SMALL_GRAPH_NODES // 4).compiled()
        KERNEL_COUNTERS.reset()
        batch_hop_lengths(graph, [0, 1, 2], backend="numpy")
        multi_source_bfs_indices(graph, [0, 1], backend="numpy")
        components_indices(graph, backend="numpy")
        assert KERNEL_COUNTERS.snapshot()["batch_dijkstra_calls"] == 0

    def test_counter_slots_include_batch_counters(self):
        snapshot = KERNEL_COUNTERS.snapshot()
        assert "batch_dijkstra_calls" in snapshot
        assert "batch_sources_total" in snapshot
