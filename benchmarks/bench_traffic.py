"""E11 — batched traffic engine vs per-pair path resolution.

The vectorized traffic engine (``repro.routing.engine``) claims O(V) scatter
per unique demand source where the per-pair path pays one predecessor-tree
walk, three list builds, and per-hop ``Link``/dict updates per pair.  This
benchmark:

1. runs the E11 engine suite (one-search-per-source, ECMP conservation, and
   demand-model gates; records land in ``RESULTS/E11/``);
2. times the engine against the per-pair reference (``per_pair_assign`` in
   ``tests/oracles.py``) on the same geometric instance — n=2000
   nodes full, n=400 smoke, with a hub-heavy integer-volume demand matrix —
   and gates the speedup (>=10x full, >=3x smoke) with **bit-identical**
   link-load vectors: Euclidean lengths make shortest paths unique (exact
   ties have measure zero) so both methods load the same paths, and integral
   volumes make the per-edge sums exact in floating point regardless of
   accumulation order, so the vectors must agree to the last bit;
3. routes a sample of single pairs in ECMP mode over hop weights and asserts
   per-pair conservation to 1e-9: volume out of the source, volume into the
   target, and total volume-hops all equal the pair's demand (times its hop
   distance);
4. when scipy is available, routes the same compiled demand through both
   engine backends and asserts the numpy batch path actually engaged
   (``batch_dijkstra_calls``; no silent fallback) with edge loads within
   1e-9 of the pure-Python reference (bit-identical here: integral volumes
   on tie-free Euclidean weights).

Writes ``BENCH_E11.json`` and a text table under ``benchmarks/results/``.
"""

from __future__ import annotations

import random
import sys
from math import inf
from pathlib import Path

from repro.experiments.reporting import (
    emit_rows,
    experiment_bench_payload,
    print_experiment,
    timed,
    write_bench_json,
)
from repro.experiments.runner import run_experiment
from repro.geography.demand import DemandMatrix
from repro.routing.engine import compile_demand, route_demand
from repro.topology.compiled import KERNEL_COUNTERS, dijkstra_indices, have_numpy_backend
from repro.topology.graph import Topology

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import per_pair_assign  # noqa: E402

NUM_NODES = 2000
SMOKE_NUM_NODES = 400
NUM_SOURCES = 30
SMOKE_NUM_SOURCES = 12
SEED = 61
SPEEDUP_FLOOR = 10.0
SMOKE_SPEEDUP_FLOOR = 3.0
ECMP_SAMPLE_PAIRS = 60
CONSERVATION_RTOL = 1e-9


def build_instance(num_nodes: int, num_sources: int, seed: int):
    """A geometric connected topology plus an integer-volume demand matrix.

    Random tree + chords with Euclidean lengths; ``num_sources`` hub nodes
    each send traffic to every other node (the content-distribution pattern
    that makes per-pair routing expensive: few searches, many pairs).
    Volumes are integral so load sums are exact in any accumulation order.
    """
    rng = random.Random(seed)
    topology = Topology(name=f"traffic-{num_nodes}")
    for i in range(num_nodes):
        topology.add_node(i, location=(rng.random(), rng.random()))
    for i in range(1, num_nodes):
        topology.add_link(i, rng.randrange(i))
    added = 0
    while added < num_nodes // 2:
        u, v = rng.randrange(num_nodes), rng.randrange(num_nodes)
        if u != v and not topology.has_link(u, v):
            topology.add_link(u, v)
            added += 1

    endpoints = [str(i) for i in range(num_nodes)]
    hubs = rng.sample(range(num_nodes), num_sources)
    sources, targets, volumes = [], [], []
    for hub in hubs:
        for other in range(num_nodes):
            if other == hub:
                continue
            sources.append(min(hub, other))
            targets.append(max(hub, other))
            volumes.append(float(rng.randint(1, 16)))
    demand = DemandMatrix.from_arrays(endpoints, sources, targets, volumes)
    endpoint_map = {str(i): i for i in range(num_nodes)}
    return topology, demand, endpoint_map


def time_methods(num_nodes: int, num_sources: int, seed: int):
    """Time per-pair vs batched assignment; assert bit-identical loads."""
    topology, demand, endpoint_map = build_instance(num_nodes, num_sources, seed)
    topology.compiled()  # compile outside both measured windows

    t_reference, _ = timed(lambda: per_pair_assign(topology, demand, endpoint_map))
    reference_loads = [link.load for link in topology.links()]

    def assign():
        flow = route_demand(topology, demand, endpoint_map=endpoint_map)
        flow.flush()
        return flow

    KERNEL_COUNTERS.reset()
    t_batched, result = timed(assign)
    counters = KERNEL_COUNTERS.snapshot()
    batched_loads = [link.load for link in topology.links()]

    assert batched_loads == reference_loads, (
        "batched link-load vector diverged from the per-pair reference "
        "(integral volumes: sums must be exact)"
    )
    # One search per unique *oriented* source: compilation turns the
    # hub-to-all matrix into one search per hub.
    unique_sources = len(set(compile_demand(topology, demand, endpoint_map).sources))
    assert counters["traffic_batched_sources"] == unique_sources
    assert counters["single_source"] == unique_sources
    assert counters["traffic_assigned_pairs"] == sum(1 for _ in demand.pairs())
    assert not result.unrouted
    return {
        "nodes": num_nodes,
        "links": topology.num_links,
        "pairs": counters["traffic_assigned_pairs"],
        "unique_sources": unique_sources,
        "per_pair_seconds": t_reference,
        "batched_seconds": t_batched,
        "speedup": t_reference / t_batched,
        "routed_volume": result.routed_volume,
        "bit_identical_loads": True,
    }


def check_ecmp_conservation(num_nodes: int, seed: int, sample_pairs: int):
    """Route single pairs in ECMP mode; volumes must be conserved per pair."""
    topology, demand, endpoint_map = build_instance(num_nodes, 2, seed + 1)
    graph = topology.compiled()
    weights = graph.edge_weight_column("hops")
    rng = random.Random(seed)
    pairs = list(demand.pairs())
    checked = 0
    max_error = 0.0
    for a, b, volume in rng.sample(pairs, min(sample_pairs, len(pairs))):
        single = DemandMatrix.from_arrays([a, b], [0], [1], [volume])
        compiled = compile_demand(topology, single, {a: endpoint_map[a], b: endpoint_map[b]})
        flow = route_demand(compiled, weight="hops", mode="ecmp")
        source = graph.index_of[endpoint_map[a]]
        target = graph.index_of[endpoint_map[b]]
        dist, _, _ = dijkstra_indices(graph, source, weights)
        assert dist[target] != inf
        incident_source = 0.0
        incident_target = 0.0
        for e in range(graph.num_edges):
            if source in (graph.edge_u[e], graph.edge_v[e]):
                incident_source += flow.edge_loads[e]
            if target in (graph.edge_u[e], graph.edge_v[e]):
                incident_target += flow.edge_loads[e]
        tolerance = CONSERVATION_RTOL * max(1.0, volume)
        for observed, expected in (
            (incident_source, volume),
            (incident_target, volume),
            (sum(flow.edge_loads), volume * dist[target]),
        ):
            error = abs(observed - expected)
            max_error = max(max_error, error / max(1.0, expected))
            assert error <= tolerance * max(1.0, dist[target]), (a, b, observed, expected)
        checked += 1
    return {"pairs_checked": checked, "max_relative_error": max_error}


def check_backend_parity(num_nodes: int, seed: int):
    """numpy batch routing must engage and match the reference to 1e-9.

    Integral volumes on tie-free Euclidean weights mean the vectors are in
    fact bit-identical; the 1e-9 gate is the documented contract, not the
    expected error.  Skipped (recorded, not silent) when scipy is absent —
    CI installs scipy, so the bench matrix always exercises the batch path.
    """
    if not have_numpy_backend():
        return {"available": False}
    topology, demand, endpoint_map = build_instance(num_nodes, 4, seed + 2)
    compiled = compile_demand(topology, demand, endpoint_map)
    reference = route_demand(compiled, backend="python")
    KERNEL_COUNTERS.reset()
    batched = route_demand(compiled, backend="numpy")
    counters = KERNEL_COUNTERS.snapshot()
    assert counters["batch_dijkstra_calls"] >= 1, "numpy batch path did not engage"
    reference_loads = reference.loads_list()
    max_diff = max(
        (abs(a - b) for a, b in zip(reference_loads, batched.loads_list())),
        default=0.0,
    )
    scale = max(1.0, max(reference_loads, default=0.0))
    assert max_diff <= 1e-9 * scale, f"backend load divergence {max_diff}"
    return {
        "available": True,
        "batch_calls": counters["batch_dijkstra_calls"],
        "max_abs_diff": max_diff,
    }


def run_benchmark(smoke: bool = False):
    num_nodes = SMOKE_NUM_NODES if smoke else NUM_NODES
    num_sources = SMOKE_NUM_SOURCES if smoke else NUM_SOURCES
    timing = time_methods(num_nodes, num_sources, SEED)
    ecmp = check_ecmp_conservation(
        SMOKE_NUM_NODES, SEED, ECMP_SAMPLE_PAIRS if not smoke else 20
    )
    results = {
        "mode": "smoke" if smoke else "full",
        "timing": timing,
        "ecmp_conservation": ecmp,
        "backend_parity": check_backend_parity(SMOKE_NUM_NODES, SEED),
    }
    rows = [
        {
            "assignment": f"demand routing (n={num_nodes}, {timing['pairs']} pairs)",
            "per_pair_s": round(timing["per_pair_seconds"], 3),
            "batched_s": round(timing["batched_seconds"], 3),
            "speedup": round(timing["speedup"], 1),
            "sources": timing["unique_sources"],
            "bit_identical": timing["bit_identical_loads"],
            "ecmp_pairs_ok": ecmp["pairs_checked"],
        }
    ]
    return results, rows


def check_acceptance(results, smoke: bool = False):
    floor = SMOKE_SPEEDUP_FLOOR if smoke else SPEEDUP_FLOOR
    timing = results["timing"]
    assert timing["speedup"] >= floor, (
        f"batched assignment speedup {timing['speedup']:.1f}x "
        f"under the {floor}x floor"
    )
    assert timing["bit_identical_loads"]
    assert results["ecmp_conservation"]["max_relative_error"] <= CONSERVATION_RTOL
    parity = results["backend_parity"]
    if parity["available"]:
        assert parity["batch_calls"] >= 1
        assert parity["max_abs_diff"] <= CONSERVATION_RTOL * SMOKE_NUM_NODES


def main(smoke: bool = False, jobs: int = 1, force: bool = False):
    engine_result = run_experiment("E11", smoke=smoke, jobs=jobs, force=force)
    print_experiment(engine_result)
    results, rows = run_benchmark(smoke=smoke)
    check_acceptance(results, smoke=smoke)
    results["experiment"] = experiment_bench_payload(engine_result)
    path = write_bench_json("E11", results)
    emit_rows(
        "E11",
        "batched vs per-pair demand assignment",
        rows,
        slug="traffic",
    )
    print(f"\nwrote {path}")


def test_traffic_engine():
    """Equality, conservation, and relaxed speedup gates at the CI size."""
    main(smoke=True)


if __name__ == "__main__":
    argv = sys.argv[1:]
    jobs = 1
    if "--jobs" in argv:
        jobs = int(argv[argv.index("--jobs") + 1])
    main(smoke="--smoke" in argv, jobs=jobs, force="--force" in argv)
