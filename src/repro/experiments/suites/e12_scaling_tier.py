"""E12 — Numpy batch kernels at the million-node scale tier (supplementary).

One task per problem size, two orders of magnitude past the E8 sweep: each
task grows an FKP tradeoff tree (the paper's §3.1 generator — the only one in
the repo whose growth loop is near-linear, which is what makes 10^6 nodes
generable at all), compiles it to the numpy-native CSR view, routes a gravity
demand matrix over sampled population centers through the batch traffic
engine, and provisions cables from the resulting edge-load column.

The suite gates the *deterministic* claims of the scale tier; wall-clock and
peak RSS are recorded in the task records' timing fields (outside record
identity), and the ≥5x numpy-vs-python floor lives in
``benchmarks/bench_scaling_tier.py``:

* **batch path engaged, no silent fallback** — when scipy is available the
  route runs with an explicit ``backend="numpy"`` (which raises rather than
  falling back) and the gates assert ``batch_dijkstra_calls >= 1`` with every
  unique source covered by a batch dispatch; when scipy is masked (the
  no-scipy CI leg) the task records ``backend="python"`` and the batch gates
  are inapplicable by construction, not silently skipped.
* **one search per unique demand source** — the E11 batching contract,
  asserted from the backend-independent ``traffic_batched_sources`` counter.
* **backend parity** — at sizes up to ``parity_max_size`` the edge-load
  column is recomputed with the pure-Python reference backend and compared:
  gravity volumes are floats, so loads must agree within 1e-9 relative
  tolerance (Euclidean weights make shortest paths unique almost surely, so
  the comparison is tie-free; the tie caveat lives with E11).
* **the hierarchical many-source point** — a dedicated task routes the
  *full* gravity matrix over ``hier_endpoints`` population centers (1024
  full, so >=1000 unique sources at n=10^5) through the overlay engine
  (``method="hierarchical"``) and re-routes it flat as the equivalence gate:
  loads agree within the same 1e-9 relative tolerance, the overlay counters
  (``hier_overlay_builds``/``hier_region_sweeps``/``hier_table_joins``)
  prove the table-join path engaged, and ``searches == 0`` proves no
  per-source fallback.  The ≥5x hierarchical-vs-flat floor lives in
  ``benchmarks/bench_scaling_tier.py``.
* the tree is connected: every compiled pair routes, and provisioning from
  the edge column leaves no overloaded link.

Every row also records the hierarchy shape it routes over
(:func:`~repro.topology.hierarchy.summarize_hierarchy` aggregates; the
hierarchical row adds the overlay partition stats), so the scale tier
documents the core/region structure behind the routing claims.

Payload floats are rounded aggregates of float accumulations, so unlike
E1–E11 they are backend-*dependent* in principle (numpy sums associate
differently than pair-order Python sums); each environment is
deterministic, which is what the content-addressed cache requires.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping

from math import isnan

from ...core.fkp import generate_fkp_tree
from ...economics.cables import default_catalog
from ...economics.provisioning import provision_topology
from ...geography.demand import gravity_demand
from ...geography.population import City
from ...routing.engine import route_demand
from ...routing.hierarchical import overlay_for
from ...routing.utilization import utilization_report
from ...topology.compiled import KERNEL_COUNTERS, have_numpy_backend
from ...topology.hierarchy import summarize_hierarchy
from ..manifest import TaskRecord
from ..registry import ExperimentSuite, Tables, register_suite
from ..task import Task, expand_points

SCENARIO_ID = "E12"

#: Relative tolerance for the numpy-vs-python edge-load comparison.
PARITY_RTOL = 1e-9


def expand(smoke: bool) -> List[Task]:
    params = SUITE.grid(smoke)
    points: List[Dict[str, object]] = [
        {
            "size": size,
            "alpha": params["alpha"],
            "num_endpoints": params["num_endpoints"],
            "total_volume": params["total_volume"],
            "parity_max_size": params["parity_max_size"],
            "seed": params["seed"],
            "routing": "flat",
        }
        for size in params["sizes"]
    ]
    # The many-source point: the FULL gravity matrix over hier_endpoints
    # population centers, routed through the hierarchical overlay with a
    # flat-equivalence gate.  Flat routing pays one search per unique source
    # here (>=1000 at the full size) — exactly the workload the overlay
    # exists for.
    points.append(
        {
            "size": params["hier_size"],
            "alpha": params["alpha"],
            "num_endpoints": params["hier_endpoints"],
            "total_volume": params["total_volume"],
            "parity_max_size": params["parity_max_size"],
            "seed": params["seed"],
            "routing": "hierarchical",
        }
    )
    return expand_points(SCENARIO_ID, params["seed"], points)


def gravity_matrix(topology, size: int, num_endpoints: int, total_volume: float, seed: int):
    """A gravity demand matrix over endpoints sampled from the tree.

    Shared with ``benchmarks/bench_scaling_tier.py`` so the benchmark's
    per-phase timings decompose exactly the workload this suite gates.
    """
    rng = random.Random(seed)
    endpoint_ids = sorted(rng.sample(range(size), num_endpoints))
    cities = [
        City(
            name=node_id,
            location=topology.node(node_id).location,
            population=rng.uniform(1e4, 1e6),
        )
        for node_id in endpoint_ids
    ]
    return gravity_demand(cities, total_volume=total_volume)


def run_point(point: Mapping[str, object], seed: int) -> Dict[str, object]:
    # The generator/demand seed is pinned in the point so every size sees the
    # same random stream family and reruns are cache-stable.
    size = int(point["size"])
    base_seed = int(point["seed"])
    routing = str(point.get("routing", "flat"))
    topology = generate_fkp_tree(size, float(point["alpha"]), seed=base_seed)
    graph = topology.compiled()
    matrix = gravity_matrix(
        topology,
        size,
        int(point["num_endpoints"]),
        float(point["total_volume"]),
        base_seed,
    )
    compiled = matrix.compile(topology)
    unique_sources = len(set(compiled.sources))

    backend = "numpy" if have_numpy_backend() else "python"
    method = "hierarchical" if routing == "hierarchical" else "flat"
    before = KERNEL_COUNTERS.snapshot()
    flow = route_demand(compiled, method=method, backend=backend)
    after = KERNEL_COUNTERS.snapshot()

    # The equivalence gate: the hierarchical row *always* re-routes flat and
    # compares (that is the point of the row); flat rows cross-check the
    # python reference backend at sizes where it is affordable.
    parity_checked = False
    parity_max_abs_diff = 0.0
    if routing == "hierarchical":
        reference = route_demand(compiled, backend=backend, method="flat")
        parity_checked = True
    elif backend == "numpy" and size <= int(point["parity_max_size"]):
        reference = route_demand(compiled, backend="python")
        parity_checked = True
    if parity_checked:
        loads = flow.loads_list()
        reference_loads = reference.loads_list()
        parity_max_abs_diff = max((abs(a - b) for a, b in zip(loads, reference_loads)), default=0.0)

    install_cost = provision_topology(topology, default_catalog(), flow=flow)
    utilization = utilization_report(topology, flow)
    summary = summarize_hierarchy(topology)
    depth = summary.mean_customer_depth
    payload = {
        "size": size,
        "num_edges": graph.num_edges,
        "backend": backend,
        "routing": routing,
        "endpoints": int(point["num_endpoints"]),
        "pairs": compiled.num_pairs,
        "unique_sources": unique_sources,
        "searches": after["traffic_batched_sources"] - before["traffic_batched_sources"],
        "assigned_pairs": after["traffic_assigned_pairs"] - before["traffic_assigned_pairs"],
        "batch_calls": after["batch_dijkstra_calls"] - before["batch_dijkstra_calls"],
        "batch_sources": after["batch_sources_total"] - before["batch_sources_total"],
        "routed_volume": round(float(flow.routed_volume), 6),
        "unrouted_pairs": len(flow.unrouted),
        "max_load": round(float(flow.max_load()), 6),
        "parity_checked": parity_checked,
        "parity_max_abs_diff": float(parity_max_abs_diff),
        "mean_utilization": round(float(utilization.mean_utilization), 4),
        "overloaded_links": len(utilization.overloaded_links),
        "install_cost": round(float(install_cost), 1),
        # The hierarchy shape the row routes over (satellite of the overlay
        # engine: the scale tier documents its core/region structure).
        "level_counts": dict(summary.level_counts),
        "backbone_fraction": round(float(summary.backbone_fraction), 6),
        "intra_level_links": summary.intra_level_links,
        "inter_level_links": summary.inter_level_links,
        "mean_customer_depth": None if isnan(depth) else round(float(depth), 4),
    }
    if routing == "hierarchical":
        payload.update(
            {
                "hier_overlay_builds": after["hier_overlay_builds"]
                - before["hier_overlay_builds"],
                "hier_region_sweeps": after["hier_region_sweeps"]
                - before["hier_region_sweeps"],
                "hier_joins": after["hier_table_joins"] - before["hier_table_joins"],
            }
        )
        overlay = overlay_for(graph, None, backend=backend)
        payload.update({f"overlay_{key}": value for key, value in overlay.stats().items()})
    return payload


def aggregate(records: List[TaskRecord]) -> Tables:
    return {"main": [record.payload for record in records]}


def check(tables: Tables, smoke: bool) -> None:
    rows = tables["main"]
    assert rows, "E12 expanded no tasks"
    hier_rows = [row for row in rows if row["routing"] == "hierarchical"]
    assert hier_rows, "E12 lost its hierarchical many-source point"
    for row in rows:
        # The FKP tree is connected: every compiled pair routes.
        assert row["assigned_pairs"] == row["pairs"], row
        assert row["unrouted_pairs"] == 0, row
        # Provisioning from the engine's edge column covers every load.
        assert row["overloaded_links"] == 0, row
        assert row["install_cost"] > 0, row
        if row["routing"] == "hierarchical":
            # Every pair answered through the overlay tables, no per-source
            # search fallback, and the overlay actually built and swept.
            assert row["searches"] == 0, row
            assert row["hier_joins"] == row["pairs"], row
            assert row["hier_overlay_builds"] >= 1, row
            assert row["hier_region_sweeps"] >= 1, row
            assert row["overlay_regions"] >= 1, row
            # The many-source shape: the full matrix over the sampled
            # endpoints (all but one endpoint appear as sources).
            assert row["unique_sources"] >= row["endpoints"] - 1, row
            # The equivalence gate vs flat routing always runs on this row.
            assert row["parity_checked"], row
        else:
            # One shortest-path search per unique demand source.
            assert row["searches"] == row["unique_sources"], row
            if row["backend"] == "numpy":
                # The batch path must actually engage — a silent fallback to
                # the per-source slow path would pass slowly, not fail.
                assert row["batch_calls"] >= 1, row
                assert row["batch_sources"] >= row["unique_sources"], row
        if row["parity_checked"]:
            scale = max(1.0, row["max_load"])
            assert row["parity_max_abs_diff"] <= PARITY_RTOL * scale, row


SUITE = register_suite(
    ExperimentSuite(
        scenario_id=SCENARIO_ID,
        title="Numpy batch kernels at the million-node scale tier",
        claim=(
            "Supplementary: the paper's argument concerns what network design "
            "looks like at real carrier scale — reproducing it credibly "
            "requires the evaluation pipeline (shortest paths, demand "
            "routing, provisioning) to run at 10^5–10^6 nodes, not just the "
            "figure-sized instances."
        ),
        parameters={
            "seed": 61,
            "sizes": [100_000, 1_000_000],
            "alpha": 10.0,
            "num_endpoints": 32,
            "total_volume": 1_000_000.0,
            "parity_max_size": 20_000,
            "hier_size": 100_000,
            "hier_endpoints": 1_024,
        },
        smoke={
            "sizes": [2_000, 5_000],
            "num_endpoints": 16,
            "hier_size": 2_000,
            "hier_endpoints": 48,
        },
        expand=expand,
        run_point=run_point,
        aggregate=aggregate,
        check=check,
    )
)
