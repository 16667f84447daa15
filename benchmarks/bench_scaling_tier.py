"""E12 — the million-node scale tier of the numpy batch kernels.

The numpy-native compiled view claims that the full paper pipeline —
generate, compile, route a gravity matrix, provision — is tractable two
orders of magnitude past the E8 sweep.  This benchmark:

1. runs the E12 engine suite (batch-path engagement, one-search-per-source,
   and numpy-vs-python load-parity gates; records land in ``RESULTS/E12/``);
2. times each pipeline phase per size — n=10^5 and n=10^6 full, reduced
   smoke sizes in CI — recording wall-clock and the process's peak RSS after
   each size, and gating the route at the largest full size under
   ``ROUTE_SECONDS_CEILING`` (the "a million-node route completes in
   seconds, not minutes" claim);
3. times the pure-Python reference backend against the numpy batch path on
   the same FKP instance (n=50k full, n=5k smoke) with an integral-volume
   endpoint mesh, and gates the speedup (>=5x full, >=1.5x smoke) with
   **bit-identical** link-load vectors: Euclidean lengths make shortest
   paths unique almost surely and integral volumes make per-edge sums exact
   in floating point regardless of accumulation order;
4. times the hierarchical overlay engine against flat batch routing on a
   many-source instance (n=10^5 with 1024 endpoints full — >=512 unique
   sources as the acceptance shape demands — n=5k/96 smoke), splitting
   overlay build from the routing pass, and gates the *cold* speedup
   (build + route vs flat route: >=5x full, >=1.5x smoke) with the same
   bit-identical load gate — tie-free weights plus integral volumes mean
   the overlay joins must reproduce flat loads exactly, not approximately.

The script *requires* the numpy/scipy backend — a missing scipy fails
loudly rather than timing the pure-Python fallback against itself (the
tier-1 suite has a dedicated no-scipy leg; this benchmark does not).

Writes ``BENCH_E12.json`` and a text table under ``benchmarks/results/``.
"""

from __future__ import annotations

import random
import sys

from repro.core.fkp import generate_fkp_tree
from repro.economics.cables import default_catalog
from repro.economics.provisioning import provision_topology
from repro.experiments.reporting import (
    emit_rows,
    experiment_bench_payload,
    print_experiment,
    timed,
    write_bench_json,
)
from repro.experiments.runner import peak_rss_kb, run_experiment
from repro.experiments.suites.e12_scaling_tier import gravity_matrix
from repro.geography.demand import DemandMatrix
from repro.routing.engine import route_demand
from repro.routing.hierarchical import overlay_for
from repro.topology.compiled import KERNEL_COUNTERS, have_numpy_backend
from repro.workloads.scenarios import scenario_for

SEED = 61
ALPHA = 10.0

#: Backend comparison instance: n=50k is the ISSUE's acceptance size.
COMPARE_NUM_NODES = 50_000
SMOKE_COMPARE_NUM_NODES = 5_000
COMPARE_NUM_ENDPOINTS = 64
SMOKE_COMPARE_NUM_ENDPOINTS = 24
SPEEDUP_FLOOR = 5.0
SMOKE_SPEEDUP_FLOOR = 1.5

#: Hierarchical-vs-flat instance: the acceptance shape is n=10^5 with >=512
#: unique sources; 1024 endpoints in a full mesh give 1023 unique sources.
HIER_NUM_NODES = 100_000
SMOKE_HIER_NUM_NODES = 5_000
HIER_NUM_ENDPOINTS = 1_024
SMOKE_HIER_NUM_ENDPOINTS = 96
HIER_SPEEDUP_FLOOR = 5.0
SMOKE_HIER_SPEEDUP_FLOOR = 1.5

#: The million-node route must complete in seconds, not minutes.
ROUTE_SECONDS_CEILING = 120.0


def build_compare_instance(num_nodes: int, num_endpoints: int, seed: int):
    """An FKP tree plus an integral-volume all-pairs endpoint mesh.

    Euclidean link lengths (the ``add_link`` default) make shortest paths
    unique almost surely, and integral volumes make load sums exact in any
    accumulation order — together they let the backend comparison demand
    bit-identical edge-load vectors, not a tolerance.
    """
    topology = generate_fkp_tree(num_nodes, ALPHA, seed=seed)
    rng = random.Random(seed)
    endpoint_ids = sorted(rng.sample(range(num_nodes), num_endpoints))
    sources, targets, volumes = [], [], []
    for i in range(num_endpoints):
        for j in range(i + 1, num_endpoints):
            sources.append(i)
            targets.append(j)
            volumes.append(float(rng.randint(1, 16)))
    demand = DemandMatrix.from_arrays(endpoint_ids, sources, targets, volumes)
    return topology, demand.compile(topology)


def time_backends(num_nodes: int, num_endpoints: int, seed: int):
    """Time python vs numpy routing; assert bit-identical loads."""
    topology, compiled = build_compare_instance(num_nodes, num_endpoints, seed)
    topology.compiled()  # compile outside both measured windows

    t_python, flow_python = timed(lambda: route_demand(compiled, backend="python"))

    KERNEL_COUNTERS.reset()
    t_numpy, flow_numpy = timed(lambda: route_demand(compiled, backend="numpy"))
    counters = KERNEL_COUNTERS.snapshot()

    unique_sources = len(set(compiled.sources))
    # The batch path must actually engage — backend="numpy" raises rather
    # than falling back, and the counters prove the dispatch happened.
    assert counters["batch_dijkstra_calls"] >= 1
    assert counters["batch_sources_total"] == unique_sources
    assert counters["traffic_batched_sources"] == unique_sources
    assert not flow_numpy.unrouted and not flow_python.unrouted
    assert flow_numpy.loads_list() == flow_python.loads_list(), (
        "numpy edge-load vector diverged from the pure-Python reference "
        "(integral volumes on tie-free weights: sums must be exact)"
    )
    return {
        "nodes": num_nodes,
        "pairs": compiled.num_pairs,
        "unique_sources": unique_sources,
        "batch_calls": counters["batch_dijkstra_calls"],
        "python_seconds": t_python,
        "numpy_seconds": t_numpy,
        "speedup": t_python / t_numpy,
        "bit_identical_loads": True,
    }


def time_hierarchical(num_nodes: int, num_endpoints: int, seed: int):
    """Time flat vs hierarchical routing; assert bit-identical loads.

    The overlay build is timed separately from the routing pass: the build
    amortizes across route calls on the same compiled snapshot (it is cached
    by weight name), so the *warm* speedup is what repeated-routing loops
    see, while the *cold* speedup (build + route) is the conservative
    single-shot figure the acceptance floor gates.
    """
    topology, compiled = build_compare_instance(num_nodes, num_endpoints, seed)
    graph = topology.compiled()  # compile outside every measured window

    t_flat, flow_flat = timed(
        lambda: route_demand(compiled, backend="numpy", method="flat")
    )

    graph.edge_weight_column("length")  # build the column outside the timed window
    KERNEL_COUNTERS.reset()
    t_overlay, overlay = timed(lambda: overlay_for(graph, None, backend="numpy"))
    t_hier, flow_hier = timed(
        lambda: route_demand(compiled, backend="numpy", method="hierarchical")
    )
    counters = KERNEL_COUNTERS.snapshot()

    # The overlay path must actually engage: one build (the route call hits
    # the cache), every pair answered by a table join, regions swept.
    assert counters["hier_overlay_builds"] == 1
    assert counters["hier_table_joins"] == compiled.num_pairs
    assert counters["hier_region_sweeps"] >= 1
    assert not flow_hier.unrouted and not flow_flat.unrouted
    assert flow_hier.loads_list() == flow_flat.loads_list(), (
        "hierarchical edge-load vector diverged from flat routing "
        "(integral volumes on tie-free weights: loads must be bit-identical)"
    )
    stats = overlay.stats()
    return {
        "nodes": num_nodes,
        "pairs": compiled.num_pairs,
        "unique_sources": len(set(compiled.sources)),
        "overlay_nodes": stats["overlay_nodes"],
        "overlay_regions": stats["regions"],
        "region_sweeps": counters["hier_region_sweeps"],
        "flat_seconds": t_flat,
        "overlay_seconds": t_overlay,
        "hier_seconds": t_hier,
        "warm_speedup": t_flat / t_hier,
        "cold_speedup": t_flat / (t_overlay + t_hier),
        "bit_identical_loads": True,
    }


def time_scale_phases(sizes, num_endpoints: int, total_volume: float, seed: int):
    """Per-phase wall-clock and peak RSS of the full pipeline at each size.

    Phases mirror the E12 suite's ``run_point`` exactly (same generator,
    same gravity matrix, same provisioning) so each row decomposes one
    suite task into generate / compile / demand / route / provision time.
    ``peak_rss_kb`` is the process high-water mark after the size completes
    (monotone across rows — ``ru_maxrss`` never shrinks).
    """
    rows = []
    for size in sizes:
        t_generate, topology = timed(lambda s=size: generate_fkp_tree(s, ALPHA, seed=seed))
        t_compile, graph = timed(topology.compiled)
        t_demand, compiled = timed(
            lambda t=topology, s=size: gravity_matrix(
                t, s, num_endpoints, total_volume, seed
            ).compile(t)
        )
        KERNEL_COUNTERS.reset()
        t_route, flow = timed(lambda c=compiled: route_demand(c, backend="numpy"))
        counters = KERNEL_COUNTERS.snapshot()
        t_provision, _report = timed(
            lambda t=topology, f=flow: provision_topology(t, default_catalog(), flow=f)
        )
        assert counters["batch_dijkstra_calls"] >= 1
        assert not flow.unrouted
        rows.append(
            {
                "size": size,
                "num_edges": graph.num_edges,
                "pairs": compiled.num_pairs,
                "generate_seconds": t_generate,
                "compile_seconds": t_compile,
                "demand_seconds": t_demand,
                "route_seconds": t_route,
                "provision_seconds": t_provision,
                "peak_rss_kb": peak_rss_kb(),
            }
        )
    return rows


def run_benchmark(smoke: bool = False):
    params = scenario_for("E12", smoke).parameters
    scale = time_scale_phases(
        params["sizes"], params["num_endpoints"], params["total_volume"], SEED
    )
    compare = time_backends(
        SMOKE_COMPARE_NUM_NODES if smoke else COMPARE_NUM_NODES,
        SMOKE_COMPARE_NUM_ENDPOINTS if smoke else COMPARE_NUM_ENDPOINTS,
        SEED,
    )
    hierarchical = time_hierarchical(
        SMOKE_HIER_NUM_NODES if smoke else HIER_NUM_NODES,
        SMOKE_HIER_NUM_ENDPOINTS if smoke else HIER_NUM_ENDPOINTS,
        SEED,
    )
    return {
        "mode": "smoke" if smoke else "full",
        "scale": scale,
        "backends": compare,
        "hierarchical": hierarchical,
    }


def check_acceptance(results, smoke: bool = False):
    floor = SMOKE_SPEEDUP_FLOOR if smoke else SPEEDUP_FLOOR
    compare = results["backends"]
    assert compare["speedup"] >= floor, (
        f"numpy batch routing speedup {compare['speedup']:.1f}x at "
        f"n={compare['nodes']} under the {floor}x floor"
    )
    assert compare["bit_identical_loads"]
    hier_floor = SMOKE_HIER_SPEEDUP_FLOOR if smoke else HIER_SPEEDUP_FLOOR
    hierarchical = results["hierarchical"]
    assert hierarchical["cold_speedup"] >= hier_floor, (
        f"hierarchical routing cold speedup {hierarchical['cold_speedup']:.1f}x "
        f"at n={hierarchical['nodes']} under the {hier_floor}x floor"
    )
    assert hierarchical["bit_identical_loads"]
    if not smoke:
        assert hierarchical["unique_sources"] >= 512, (
            "acceptance shape demands >=512 unique sources at the full size"
        )
        largest = max(results["scale"], key=lambda row: row["size"])
        assert largest["route_seconds"] <= ROUTE_SECONDS_CEILING, (
            f"n={largest['size']} route took {largest['route_seconds']:.1f}s "
            f"(ceiling {ROUTE_SECONDS_CEILING:.0f}s)"
        )


def main(smoke: bool = False, jobs: int = 1, force: bool = False):
    if not have_numpy_backend():
        raise SystemExit(
            "bench_scaling_tier requires the numpy/scipy backend "
            "(unset REPRO_BACKEND=python and install scipy)"
        )
    engine_result = run_experiment("E12", smoke=smoke, jobs=jobs, force=force)
    print_experiment(engine_result)
    results = run_benchmark(smoke=smoke)
    check_acceptance(results, smoke=smoke)
    results["experiment"] = experiment_bench_payload(engine_result)
    path = write_bench_json("E12", results)
    rows = [
        {
            "size": row["size"],
            "edges": row["num_edges"],
            "generate_s": round(row["generate_seconds"], 2),
            "compile_s": round(row["compile_seconds"], 2),
            "route_s": round(row["route_seconds"], 3),
            "provision_s": round(row["provision_seconds"], 2),
            "peak_rss_mb": row["peak_rss_kb"] // 1024,
        }
        for row in results["scale"]
    ] + [
        {
            "size": results["backends"]["nodes"],
            "edges": "(backend compare)",
            "generate_s": "-",
            "compile_s": "-",
            "route_s": round(results["backends"]["numpy_seconds"], 3),
            "provision_s": "-",
            "peak_rss_mb": f"{results['backends']['speedup']:.1f}x vs python",
        },
        {
            "size": results["hierarchical"]["nodes"],
            "edges": "(hierarchical)",
            "generate_s": "-",
            "compile_s": round(results["hierarchical"]["overlay_seconds"], 3),
            "route_s": round(results["hierarchical"]["hier_seconds"], 3),
            "provision_s": "-",
            "peak_rss_mb": f"{results['hierarchical']['cold_speedup']:.1f}x vs flat",
        },
    ]
    emit_rows("E12", "million-node scale tier (phase timings)", rows, slug="scaling_tier")
    print(f"\nwrote {path}")


def test_scaling_tier():
    """Engagement, parity, and relaxed speedup gates at the CI size."""
    main(smoke=True)


if __name__ == "__main__":
    argv = sys.argv[1:]
    jobs = 1
    if "--jobs" in argv:
        jobs = int(argv[argv.index("--jobs") + 1])
    main(smoke="--smoke" in argv, jobs=jobs, force="--force" in argv)
