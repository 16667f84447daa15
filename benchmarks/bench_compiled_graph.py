"""Compiled graph backend vs. legacy object-graph removal traces.

Compares the mask-based removal traces of ``repro.metrics.resilience`` (run
on the CSR view of ``repro.topology.compiled``; E5 and E7 use them) against
the copy-per-step object-graph implementation they replaced (inlined below,
verbatim from the seed), on a 1000-node GLP topology, for random and
targeted removal.

Run directly (``python benchmarks/bench_compiled_graph.py``) for the full
1000-node comparison with the >=5x speedup gates, or with ``--smoke`` for a
smaller CI variant that keeps the exactness gate and a laxer 2x floor.
Writes ``BENCH_compiled_graph.json`` and a text table under
``benchmarks/results/``.
"""

from __future__ import annotations

import random
import sys

from repro.experiments.reporting import best_of, emit_rows, write_bench_json
from repro.generators.glp import GLPGenerator
from repro.metrics.resilience import removal_trace
from repro.topology.node import NodeRole

NUM_NODES = 1000
CORE_COUNT = 50
SMOKE_NUM_NODES = 400
SMOKE_CORE_COUNT = 30
SEED = 7
REPEATS = 3


def build_topology(num_nodes: int, core_count: int):
    topo = GLPGenerator().generate(num_nodes, seed=SEED)
    ranked = sorted(topo.nodes(), key=lambda n: topo.degree(n.node_id), reverse=True)
    for rank, node in enumerate(ranked):
        if rank < core_count:
            node.role = NodeRole.CORE
        else:
            node.role = NodeRole.CUSTOMER
            node.demand = 1.0
    return topo


# ----------------------------------------------------------------------
# Legacy kernels (seed implementations, object graph)
# ----------------------------------------------------------------------
def legacy_bfs_reachable(topology, source):
    adjacency = topology._adjacency
    visited = {source}
    queue = [source]
    head = 0
    while head < len(queue):
        current = queue[head]
        head += 1
        for neighbor in adjacency[current]:
            if neighbor not in visited:
                visited.add(neighbor)
                queue.append(neighbor)
    return visited


def legacy_largest_component_fraction(topology, original_size):
    if topology.num_nodes == 0 or original_size == 0:
        return 0.0
    remaining = set(topology.node_ids())
    best = 0
    while remaining:
        component = legacy_bfs_reachable(topology, next(iter(remaining)))
        best = max(best, len(component))
        remaining -= component
    return best / original_size


def legacy_disconnected_demand_fraction(topology, total_demand):
    if total_demand <= 0:
        return 0.0
    cores = [n.node_id for n in topology.nodes() if n.role == NodeRole.CORE]
    if not cores:
        return 0.0
    reachable = set()
    for core in cores:
        reachable.update(legacy_bfs_reachable(topology, core))
    connected = sum(
        n.demand
        for n in topology.nodes()
        if n.role == NodeRole.CUSTOMER and n.node_id in reachable
    )
    return 1.0 - connected / total_demand


def legacy_removal_trace(topology, strategy, steps=20, max_fraction=0.5, seed=0):
    working = topology.copy()
    original_size = topology.num_nodes
    total_demand = sum(
        n.demand for n in topology.nodes() if n.role == NodeRole.CUSTOMER
    )
    rng = random.Random(seed)
    removable = list(topology.node_ids())
    total_to_remove = min(int(max_fraction * original_size), len(removable))
    per_step = max(1, total_to_remove // steps)
    fractions = [0.0]
    largest = [legacy_largest_component_fraction(working, original_size)]
    demand_loss = [legacy_disconnected_demand_fraction(working, total_demand)]
    removed = 0
    if strategy == "random":
        rng.shuffle(removable)
    while removed < total_to_remove:
        batch = min(per_step, total_to_remove - removed)
        for _ in range(batch):
            if strategy == "targeted":
                candidates = [n for n in working.node_ids() if n in set(removable)]
                if not candidates:
                    break
                victim = max(candidates, key=working.degree)
                removable.remove(victim)
            else:
                victim = None
                while removable:
                    candidate = removable.pop()
                    if working.has_node(candidate):
                        victim = candidate
                        break
                if victim is None:
                    break
            if working.has_node(victim):
                working.remove_node(victim)
                removed += 1
        fractions.append(removed / original_size)
        largest.append(legacy_largest_component_fraction(working, original_size))
        demand_loss.append(legacy_disconnected_demand_fraction(working, total_demand))
        if not removable:
            break
    return fractions, largest, demand_loss


# ----------------------------------------------------------------------
# Benchmark body
# ----------------------------------------------------------------------
def run_benchmark(smoke: bool = False):
    core_count = SMOKE_CORE_COUNT if smoke else CORE_COUNT
    repeats = 2 if smoke else REPEATS
    topo = build_topology(SMOKE_NUM_NODES if smoke else NUM_NODES, core_count)
    topo.compiled()  # compile outside the timed regions
    rows = []
    results = {
        "mode": "smoke" if smoke else "full",
        "topology": {
            "generator": "glp",
            "nodes": topo.num_nodes,
            "links": topo.num_links,
            "cores": core_count,
            "seed": SEED,
        },
    }

    # --- removal traces ------------------------------------------------
    results["removal_trace"] = {}
    for strategy in ("random", "targeted"):
        t_new, trace = best_of(
            lambda: removal_trace(
                topo, strategy=strategy, steps=20, max_fraction=0.5, seed=3
            ),
            repeats=repeats,
        )
        t_old, legacy = best_of(
            lambda: legacy_removal_trace(
                topo, strategy, steps=20, max_fraction=0.5, seed=3
            ),
            repeats=1,
        )
        if strategy == "random":
            # Same victims, same measurements: traces must agree exactly.
            assert trace.fractions_removed == legacy[0]
            assert trace.largest_component_fraction == legacy[1]
            assert trace.disconnected_demand_fraction == legacy[2]
        results["removal_trace"][strategy] = {
            "legacy_seconds": t_old,
            "compiled_seconds": t_new,
            "speedup": t_old / t_new,
        }
        rows.append(
            {
                "kernel": f"removal_trace ({strategy})",
                "legacy_s": round(t_old, 3),
                "compiled_s": round(t_new, 3),
                "speedup": round(t_old / t_new, 1),
            }
        )

    return results, rows


def check_acceptance(results, smoke: bool = False):
    # Speedup thresholds: full gates at n=1000; a laxer floor at the smaller,
    # load-sensitive CI size so regressions to the object-graph path still fail.
    floor = 2.0 if smoke else 5.0
    for strategy in ("random", "targeted"):
        assert results["removal_trace"][strategy]["speedup"] >= floor, results[
            "removal_trace"
        ]


def main(smoke: bool = False):
    results, rows = run_benchmark(smoke=smoke)
    check_acceptance(results, smoke=smoke)
    path = write_bench_json("compiled_graph", results)
    emit_rows(
        "E-compiled",
        "compiled removal traces vs legacy object-graph traces (%d-node GLP)"
        % results["topology"]["nodes"],
        rows,
        slug="compiled_graph",
    )
    print(f"\nwrote {path}")


def test_compiled_graph_backend():
    """Exactness and speedup gates at the CI (smoke) size."""
    main(smoke=True)


if __name__ == "__main__":
    main(smoke="--smoke" in sys.argv[1:])
