"""Tests for repro.routing.temporal — series routing, diffs, and cascades."""

import math
import random
import struct
from array import array

import pytest

from repro.economics.cables import default_catalog
from repro.economics.provisioning import provision_topology
from repro.geography.demand import DemandMatrix
from repro.core.objectives import CostObjective
from repro.optimization.incremental import IncrementalState, RemoveLinks
from repro.routing.engine import route_demand
from repro.routing.options import RoutingOptions
from repro.routing.temporal import (
    DemandSeries,
    compile_series,
    diurnal_series,
    failure_cascade,
    flash_crowd,
    route_series,
)
from repro.topology.compiled import KERNEL_COUNTERS, have_numpy_backend
from repro.topology.graph import Topology, TopologyError

# Fixed point of the pinned 24-node cascade below (backend="python"; loads
# are bit-identical across backends on tie-free weights + integral volumes,
# so this hash is backend-independent — see the module docstring).
PINNED_CASCADE_HASH = "ff0604d4259ad7b5e538b46cd6a91365cf22589fe68226a05e68a70d4e357c87"
PINNED_CASCADE_ROUNDS = 6
PINNED_CASCADE_TRIPS = 16


def random_instance(num_nodes, num_pairs, seed):
    """Random tree + chords with Euclidean lengths and integral volumes.

    Tie-free weights with integral volumes make routed load columns exact in
    any accumulation order — the precondition for every bit-identity gate.
    """
    rng = random.Random(seed)
    topo = Topology(name=f"temporal-test-{num_nodes}-{seed}")
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
    endpoints = [str(i) for i in range(num_nodes)]
    chosen = set()
    while len(chosen) < num_pairs:
        u, v = rng.randrange(num_nodes), rng.randrange(num_nodes)
        if u != v:
            chosen.add((min(u, v), max(u, v)))
    sources, targets, volumes = [], [], []
    for u, v in sorted(chosen):
        sources.append(u)
        targets.append(v)
        volumes.append(float(rng.randint(1, 9)))
    demand = DemandMatrix.from_arrays(endpoints, sources, targets, volumes)
    endpoint_map = {str(i): i for i in range(num_nodes)}
    return topo, demand, endpoint_map


def base_matrix():
    demand = DemandMatrix(endpoints=["a", "b", "c"])
    demand.set_demand("a", "b", 4.0)
    demand.set_demand("b", "c", 2.0)
    return demand


class TestDemandSeries:
    def test_empty_series_rejected(self):
        with pytest.raises(ValueError, match="at least one step"):
            DemandSeries(steps=[])

    def test_label_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            DemandSeries(steps=[base_matrix()], labels=["t0", "t1"])

    def test_default_labels_and_sequence_protocol(self):
        series = DemandSeries(steps=[base_matrix(), base_matrix()])
        assert series.labels == ["t00", "t01"]
        assert len(series) == 2
        assert list(series)[1] is series[1]


class TestGenerators:
    def test_diurnal_validation(self):
        with pytest.raises(ValueError, match="num_steps"):
            diurnal_series(base_matrix(), num_steps=0)
        with pytest.raises(ValueError, match="amplitude"):
            diurnal_series(base_matrix(), amplitude=1.0)

    def test_diurnal_cycle_conserves_mean_volume(self):
        base = base_matrix()
        series = diurnal_series(base, num_steps=8, amplitude=0.5)
        # The sinusoid sums to zero over one full cycle.
        total = sum(step.demand("a", "b") for step in series.steps)
        assert total == pytest.approx(8 * 4.0)
        for step in series.steps:
            assert 2.0 <= step.demand("a", "b") <= 6.0

    def test_flash_crowd_deterministic_and_sparse(self):
        base = base_matrix()
        first = flash_crowd(base, num_steps=6, num_hotspots=1, duration=2, seed=3)
        second = flash_crowd(base, num_steps=6, num_hotspots=1, duration=2, seed=3)
        for s1, s2 in zip(first.steps, second.steps):
            assert s1.demand("a", "b") == s2.demand("a", "b")
            assert s1.demand("b", "c") == s2.demand("b", "c")
        # Quiet steps reuse the base matrix *object* (diffs to zero for free).
        assert any(step is base for step in first.steps)
        # Some step actually spikes.
        assert any(
            step.demand("a", "b") > 4.0 or step.demand("b", "c") > 2.0
            for step in first.steps
        )


class TestRouteSeries:
    def test_diurnal_steps_match_from_scratch_route_demand(self):
        topo, demand, emap = random_instance(30, 25, 5)
        series = diurnal_series(demand, num_steps=6, amplitude=0.4)
        result = route_series(topo, series, endpoint_map=emap, backend="python")
        assert result.num_steps == 6
        for step, matrix in zip(result.steps, series.steps):
            flat = route_demand(topo, matrix, endpoint_map=emap, backend="python")
            diff = max(
                abs(a - b) for a, b in zip(step.loads_list(), flat.loads_list())
            )
            assert diff <= 1e-9
            assert step.served_fraction == 1.0

    def test_flash_diff_bit_identical_to_full_reroute(self):
        topo, demand, emap = random_instance(40, 30, 7)
        series = flash_crowd(demand, num_steps=8, num_hotspots=2, seed=9)
        compiled = compile_series(topo, series, emap)
        KERNEL_COUNTERS.reset()
        diffed = route_series(compiled, backend="python", reuse=True)
        resolved_diff = KERNEL_COUNTERS.snapshot()["temporal_resolved_sources"]
        KERNEL_COUNTERS.reset()
        full = route_series(compiled, backend="python", reuse=False)
        resolved_full = KERNEL_COUNTERS.snapshot()["temporal_resolved_sources"]
        assert diffed.step_hashes() == full.step_hashes()
        assert resolved_diff < resolved_full
        assert resolved_full == len(series) * compiled.unique_sources
        assert resolved_diff == diffed.resolved_sources_total

    def test_quiet_step_resolves_nothing(self):
        topo, demand, emap = random_instance(20, 15, 2)
        # Two identical steps: the second must re-resolve zero sources.
        series = DemandSeries(steps=[demand, demand])
        result = route_series(topo, series, endpoint_map=emap, backend="python")
        assert result.steps[0].resolved_sources > 0
        assert result.steps[1].resolved_sources == 0
        assert result.steps[0].load_hash() == result.steps[1].load_hash()

    def test_ecmp_diff_matches_full(self):
        topo, demand, emap = random_instance(25, 20, 13)
        series = flash_crowd(demand, num_steps=5, seed=4)
        # Hop weights create equal-cost ties; the retained ECMP column must
        # still make the diff path exact.
        options = RoutingOptions(weight="hops", mode="ecmp", backend="python")
        diffed = route_series(topo, series, endpoint_map=emap, options=options)
        full = route_series(
            topo, series, endpoint_map=emap, options=options, reuse=False
        )
        assert diffed.step_hashes() == full.step_hashes()

    @pytest.mark.skipif(not have_numpy_backend(), reason="scipy not available")
    def test_backend_parity_bit_identical(self):
        topo, demand, emap = random_instance(35, 30, 17)
        series = flash_crowd(demand, num_steps=6, seed=8)
        compiled = compile_series(topo, series, emap)
        python = route_series(compiled, backend="python")
        numpy = route_series(compiled, backend="numpy")
        assert python.step_hashes() == numpy.step_hashes()

    def test_stale_compiled_series_rejected(self):
        topo, demand, emap = random_instance(12, 8, 1)
        series = DemandSeries(steps=[demand])
        compiled = compile_series(topo, series, emap)
        topo.add_node("extra", location=(2.0, 2.0))
        topo.add_link(0, "extra")
        with pytest.raises(TopologyError, match="stale CompiledSeries"):
            route_series(topo, compiled)

    def test_stale_step_result_rejected(self):
        topo, demand, emap = random_instance(12, 8, 1)
        result = route_series(
            topo, DemandSeries(steps=[demand]), endpoint_map=emap
        )
        step = result.steps[0]
        assert step.loads_for(topo) is not None
        topo.remove_link(*next(iter(topo.link_keys())))
        with pytest.raises(TopologyError, match="stale step result"):
            step.loads_for(topo)

    def test_hierarchical_method_rejected(self):
        topo, demand, emap = random_instance(12, 8, 1)
        series = DemandSeries(steps=[demand])
        with pytest.raises(ValueError, match="method='flat' only"):
            route_series(
                topo,
                series,
                endpoint_map=emap,
                options=RoutingOptions(method="hierarchical"),
            )

    def test_unreachable_demand_is_shed(self):
        topo, demand, emap = random_instance(10, 6, 3)
        topo.add_node("island", location=(5.0, 5.0))
        stranded = DemandMatrix(endpoints=["0", "island"])
        stranded.set_demand("0", "island", 5.0)
        emap = dict(emap, island="island")
        result = route_series(
            topo, DemandSeries(steps=[stranded]), endpoint_map=emap
        )
        step = result.steps[0]
        assert step.served_fraction == 0.0
        assert step.unrouted_volume == 5.0
        assert step.unrouted


class TestOneKernel:
    """route_demand, route_series and failure_cascade share one per-source loop."""

    @pytest.mark.parametrize("mode", ["single", "ecmp"])
    @pytest.mark.parametrize(
        "backend",
        [
            "python",
            pytest.param(
                "numpy",
                marks=pytest.mark.skipif(not have_numpy_backend(), reason="scipy not available"),
            ),
        ],
    )
    def test_series_step_and_cascade_round_match_route_demand(self, backend, mode):
        topo, demand, emap = random_instance(30, 40, 19)
        # A two-node island strands the pairs that touch it.
        topo.add_node("isle", location=(5.0, 5.0))
        topo.add_node("islet", location=(5.5, 5.0))
        topo.add_link("isle", "islet")
        matrix = DemandMatrix(endpoints=[*demand.endpoints, "isle"])
        for a, b, volume in demand.pairs():
            matrix.set_demand(a, b, volume)
        matrix.set_demand("3", "isle", 4.0)
        matrix.set_demand("isle", "17", 2.0)
        emap = dict(emap, isle="isle")
        options = RoutingOptions(mode=mode, method="flat", backend=backend)
        flat = route_demand(topo, matrix, endpoint_map=emap, options=options)
        step = route_series(topo, DemandSeries([matrix]), endpoint_map=emap, options=options)
        provision_topology(topo, default_catalog(), flow=flat)
        cascade = failure_cascade(topo, matrix, endpoint_map=emap, options=options)
        assert len(flat.unrouted) == 2
        for result in (step.steps[0], cascade.rounds[0].flow):
            assert array("d", result.edge_loads).tobytes() == array("d", flat.edge_loads).tobytes()
            assert struct.pack("<d", result.routed_volume) == struct.pack("<d", flat.routed_volume)
            assert result.routed_pairs == flat.routed_pairs
            assert result.unrouted == flat.unrouted


class TestFailureCascade:
    def cascade_instance(self, num_nodes=24, num_pairs=40, seed=11, surge=3.0):
        topo, demand, emap = random_instance(num_nodes, num_pairs, seed)
        base = route_demand(topo, demand, endpoint_map=emap, backend="python")
        provision_topology(topo, default_catalog(), flow=base)
        return topo, demand.scaled(surge), emap

    def test_pinned_regression(self):
        topo, surge, emap = self.cascade_instance()
        cascade = failure_cascade(
            topo, surge, endpoint_map=emap, backend="python"
        )
        assert cascade.fixed_point
        assert cascade.num_rounds == PINNED_CASCADE_ROUNDS
        assert cascade.total_trips == PINNED_CASCADE_TRIPS
        assert cascade.step_hashes()[-1] == PINNED_CASCADE_HASH

    def test_repeat_and_restore_determinism(self):
        topo, surge, emap = self.cascade_instance()
        keys_before = list(topo.link_keys())
        first = failure_cascade(topo, surge, endpoint_map=emap, backend="python")
        # restore=True rewinds the topology — including dict iteration order,
        # so the next compile sees the identical edge ordering.
        assert list(topo.link_keys()) == keys_before
        second = failure_cascade(topo, surge, endpoint_map=emap, backend="python")
        assert first.step_hashes() == second.step_hashes()
        assert first.tripped_keys == second.tripped_keys

    @pytest.mark.skipif(not have_numpy_backend(), reason="scipy not available")
    @pytest.mark.parametrize("seed", [21, 22, 23, 24, 25])
    def test_fixed_points_identical_across_backends(self, seed):
        """Randomized property: the cascade fixed point is backend-invariant."""
        topo, surge, emap = self.cascade_instance(
            num_nodes=20 + seed % 7, num_pairs=30, seed=seed
        )
        python = failure_cascade(topo, surge, endpoint_map=emap, backend="python")
        numpy = failure_cascade(topo, surge, endpoint_map=emap, backend="numpy")
        assert python.step_hashes() == numpy.step_hashes()
        assert python.tripped_keys == numpy.tripped_keys
        assert python.served_fraction == numpy.served_fraction
        assert python.fixed_point and numpy.fixed_point

    def test_generous_headroom_never_trips(self):
        topo, surge, emap = self.cascade_instance(surge=3.0)
        # capacity >= base load, so headroom >= surge - 1 is trip-free.
        cascade = failure_cascade(
            topo, surge, endpoint_map=emap, backend="python", headroom=2.0
        )
        assert cascade.total_trips == 0
        assert cascade.num_rounds == 1
        assert cascade.served_fraction == 1.0

    def test_max_rounds_cuts_cascade_short(self):
        topo, surge, emap = self.cascade_instance()
        cascade = failure_cascade(
            topo, surge, endpoint_map=emap, backend="python", max_rounds=1
        )
        assert not cascade.fixed_point
        assert cascade.num_rounds == 1
        assert len(cascade.rounds[0].tripped) > 0

    def test_cascade_trip_counter(self):
        topo, surge, emap = self.cascade_instance()
        KERNEL_COUNTERS.reset()
        cascade = failure_cascade(topo, surge, endpoint_map=emap, backend="python")
        assert KERNEL_COUNTERS.snapshot()["cascade_trips"] == cascade.total_trips

    def test_validation_errors(self):
        topo, surge, emap = self.cascade_instance(num_nodes=12, num_pairs=8)
        for bad in (-0.1, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="headroom"):
                failure_cascade(topo, surge, endpoint_map=emap, headroom=bad)
        with pytest.raises(ValueError, match="max_rounds"):
            failure_cascade(topo, surge, endpoint_map=emap, max_rounds=0)
        with pytest.raises(TypeError, match="Topology first"):
            failure_cascade(surge, surge)


class TestRemoveLinksMove:
    def build_state(self):
        topo, _, _ = random_instance(15, 8, 31)
        return topo, IncrementalState(topo, CostObjective())

    def test_batch_revert_restores_edge_order(self):
        topo, state = self.build_state()
        edge_keys_before = list(topo.compiled().edge_keys)
        keys = list(topo.link_keys())[:3]
        depth = state.undo_depth
        state.apply(RemoveLinks(tuple(keys)))
        assert topo.num_links == len(edge_keys_before) - 3
        state.revert_to(depth)
        # Not just the same link set: the same *iteration order*, so the
        # recompiled edge space is identical (cascade determinism needs it).
        assert list(topo.compiled().edge_keys) == edge_keys_before

    def test_duplicate_link_in_batch_rejected(self):
        topo, state = self.build_state()
        key = next(iter(topo.link_keys()))
        links_before = topo.num_links
        with pytest.raises(TopologyError, match="duplicate link"):
            state.apply(RemoveLinks((key, key)))
        assert topo.num_links == links_before

    def test_missing_link_rejected_before_mutation(self):
        topo, state = self.build_state()
        key = next(iter(topo.link_keys()))
        links_before = topo.num_links
        with pytest.raises(TopologyError):
            state.apply(RemoveLinks((key, ("no-such", "link"))))
        assert topo.num_links == links_before


class TestSuiteDeterminism:
    def test_e13_smoke_serial_parallel_identical(self, tmp_path):
        from repro.experiments.runner import run_experiment

        serial = run_experiment(
            "E13", smoke=True, jobs=1, results_dir=tmp_path / "serial"
        )
        parallel = run_experiment(
            "E13", smoke=True, jobs=2, results_dir=tmp_path / "parallel"
        )
        assert serial.gates_checked and parallel.gates_checked
        assert [r.payload for r in serial.records] == [
            r.payload for r in parallel.records
        ]
        # Per-round SHA-256 fingerprints of every cascade fixed point agree.
        serial_hashes = [row["final_hash"] for row in serial.tables["cascade"]]
        parallel_hashes = [row["final_hash"] for row in parallel.tables["cascade"]]
        assert serial_hashes == parallel_hashes
