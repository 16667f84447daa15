"""Dynamic-connectivity engine under deletion-heavy move sequences.

The HDT structure (``repro.topology.dynconn``) claims O(log² n) per edge
deletion, so the move engine's deletions cost no reachability sweep.  This
benchmark drives it from two sides and reports wall-clock for both:

1. **Deletion-heavy local search** (n=2000 full, n=400 smoke): one
   pre-generated move trace — ≥50% ``RemoveLink``/``Rewire``, integral
   demands, ``CostObjective`` — replayed through ``IncrementalState``.
   Gates: the served demand is bit-identical to a from-scratch
   ``served_customers`` search after the replay (integral sums are exact in
   any order), the incremental score matches a full evaluation, and
   ``revert_to(0)`` restores the initial score bits and link order.
2. **Failure-cascade fixed point** (n=10000 full, n=2000 smoke): a
   provisioned surge cascaded to a fixed point.  Gates: the cascade trips
   and converges, ``cascade_trips`` counts exactly the tripped links, the
   restore leaves the link order byte-identical, and the measured ETT ops
   per tripped link stay under a 4·log₂n polylog bound.  Wall-clock is
   reported, not gated — the cascade is dominated by routing, not
   connectivity.

Writes ``BENCH_dynconn.json`` and a text table under ``benchmarks/results/``.
Pure bookkeeping: the benchmark behaves identically under both
``REPRO_BACKEND`` settings (CI runs it on both legs).
"""

from __future__ import annotations

import math
import random
import struct
import sys

from repro.core.objectives import CostObjective, served_customers
from repro.economics.cables import default_catalog
from repro.economics.provisioning import provision_topology
from repro.experiments.reporting import emit_rows, timed, write_bench_json
from repro.geography.demand import DemandMatrix
from repro.optimization.incremental import (
    AddLink,
    IncrementalState,
    RemoveLink,
    Rewire,
)
from repro.routing.engine import route_demand
from repro.routing.temporal import failure_cascade
from repro.topology.compiled import KERNEL_COUNTERS
from repro.topology.graph import Topology
from repro.topology.node import NodeRole

NUM_NODES = 2000
SMOKE_NUM_NODES = 400
NUM_MOVES = 600
SMOKE_NUM_MOVES = 200
CASCADE_NUM_NODES = 10_000
SMOKE_CASCADE_NUM_NODES = 2_000
# The cable ladder's capacity steps are ~3.4-4x apart, so a provisioned
# link only trips when the surge outruns its band: 4x clears every step.
CASCADE_SURGE = 4.0
SEED = 59


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def build_anneal_instance(size: int, seed: int) -> Topology:
    """An access tree plus chords with *integral* customer demands.

    Integral demands are exact in float and their component sums stay under
    2^53, so the engine's correctly-rounded fixed-point sums coincide
    bitwise with any other summation order — which is what lets the
    served-demand gate demand bit-identity, not tolerance.
    """
    rng = random.Random(seed)
    topology = Topology(name=f"dynconn-anneal-{size}")
    topology.add_node("core0", role=NodeRole.CORE, location=(0.5, 0.5))
    for i in range(size - 1):
        topology.add_node(
            f"c{i}",
            role=NodeRole.CUSTOMER,
            location=(rng.random(), rng.random()),
            demand=float(rng.randint(1, 9)),
        )
        target = "core0" if i == 0 else f"c{rng.randrange(i)}"
        topology.add_link(f"c{i}", target, install_cost=2.0, usage_cost=0.1)
    ids = [node.node_id for node in topology.nodes()]
    added = 0
    while added < size // 4:
        u, v = rng.sample(ids, 2)
        if not topology.has_link(u, v):
            topology.add_link(u, v, install_cost=2.0, usage_cost=0.1)
            added += 1
    return topology


def generate_trace(size: int, seed: int, num_moves: int):
    """A deletion-heavy apply/revert trace, valid from the seed instance.

    Generated against a throwaway mirror of the instance (link presence is
    all that move validity depends on), so the replay is a fixed sequence.
    Mix: 50% RemoveLink, ~15% Rewire, rest AddLink, with a 20% revert after
    each applied move — well past the >=50% deletion-bearing floor once
    Rewire and reverts of AddLink are counted.
    """
    mirror = build_anneal_instance(size, seed)
    rng = random.Random(seed + 1)
    ids = [node.node_id for node in mirror.nodes()]
    trace = []
    undo = []  # inverse link ops so the mirror can follow reverts
    applied = deletions = 0
    while applied < num_moves:
        roll = rng.random()
        if roll < 0.50:
            link = rng.choice(list(mirror.links()))
            move = RemoveLink(link.source, link.target)
            mirror.remove_link(link.source, link.target)
            undo.append((("add", link.source, link.target),))
            deletions += 1
        elif roll < 0.65:
            leaves = [n for n in ids if mirror.degree(n) == 1]
            if not leaves:
                continue
            node = rng.choice(leaves)
            old = mirror.neighbors(node)[0]
            new = rng.choice([x for x in ids if x not in (node, old)])
            if mirror.has_link(node, new):
                continue
            move = Rewire(node, old, new)
            mirror.remove_link(node, old)
            mirror.add_link(node, new)
            undo.append((("remove", node, new), ("add", node, old)))
            deletions += 1
        else:
            u, v = rng.sample(ids, 2)
            if mirror.has_link(u, v):
                continue
            move = AddLink(u, v, install_cost=2.0, usage_cost=0.05)
            mirror.add_link(u, v)
            undo.append((("remove", u, v),))
        trace.append(("apply", move))
        applied += 1
        if rng.random() < 0.20:
            for op, a, b in undo.pop():
                if op == "add":
                    mirror.add_link(a, b)
                else:
                    mirror.remove_link(a, b)
            trace.append(("revert", None))
    return trace, deletions


def replay(state: IncrementalState, trace) -> list:
    deltas = []
    for op, move in trace:
        if op == "apply":
            deltas.append(state.apply(move))
        else:
            state.revert()
    return deltas


def time_replay(size: int, num_moves: int, seed: int):
    """Replay one deletion-heavy trace; time it and check it against oracles."""
    trace, deletions = generate_trace(size, seed, num_moves)
    state = IncrementalState(build_anneal_instance(size, seed), CostObjective())
    initial_score = _bits(state.score)
    initial_links = list(state.topology.link_keys())
    before = KERNEL_COUNTERS.snapshot()
    seconds, _ = timed(lambda: replay(state, trace))
    after = KERNEL_COUNTERS.snapshot()

    served = served_customers(state.topology)
    oracle = sum(state.topology.node(c).demand for c in served)
    served_matches = _bits(state.served_demand) == _bits(oracle)
    assert served_matches, "served demand diverged from the multi-source BFS"
    state.verify()
    state.revert_to(0)
    assert _bits(state.score) == initial_score
    assert list(state.topology.link_keys()) == initial_links
    return {
        "size": size,
        "moves": num_moves,
        "deletion_moves": deletions,
        "dynconn_seconds": seconds,
        "dynconn_tree_ops": after["dynconn_tree_ops"] - before["dynconn_tree_ops"],
        "replacement_searches": after["dynconn_replacement_searches"]
        - before["dynconn_replacement_searches"],
        "served_demand_matches_oracle": served_matches,
    }


def build_cascade_instance(num_nodes: int, seed: int):
    """A provisioned geometric backbone plus its surged demand."""
    rng = random.Random(seed)
    topology = Topology(name=f"dynconn-cascade-{num_nodes}")
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
    chosen = set()
    while len(chosen) < num_nodes // 10:
        u, v = rng.randrange(num_nodes), rng.randrange(num_nodes)
        if u != v:
            chosen.add((min(u, v), max(u, v)))
    sources, targets, volumes = [], [], []
    for u, v in sorted(chosen):
        sources.append(u)
        targets.append(v)
        volumes.append(float(rng.randint(1, 16)))
    demand = DemandMatrix.from_arrays(endpoints, sources, targets, volumes)
    endpoint_map = {str(i): i for i in range(num_nodes)}
    base = route_demand(topology, demand, endpoint_map=endpoint_map, backend="python")
    provision_topology(topology, default_catalog(), flow=base)
    return topology, demand.scaled(CASCADE_SURGE), endpoint_map


def time_cascade(num_nodes: int, seed: int):
    """One surge cascaded to a fixed point; time it and count its work."""
    topology, surge, endpoint_map = build_cascade_instance(num_nodes, seed)
    links_before = list(topology.link_keys())
    before = KERNEL_COUNTERS.snapshot()
    seconds, cascade = timed(
        lambda: failure_cascade(topology, surge, endpoint_map=endpoint_map, backend="python")
    )
    after = KERNEL_COUNTERS.snapshot()
    spent = {k: after[k] - before[k] for k in after}

    assert cascade.fixed_point
    assert cascade.total_trips > 0, "cascade instance must actually trip"
    assert spent["cascade_trips"] == cascade.total_trips, spent
    assert list(topology.link_keys()) == links_before, "restore changed link order"
    # Every trip is O(polylog), pinned by bounding its *measured* ETT ops
    # per trip.  tree_ops spends V-1 links on engine construction and
    # mirrors the delete-phase work once more in the restore unwind; the
    # remainder is the deletions.
    trips = cascade.total_trips
    per_trip = (spent["dynconn_tree_ops"] - (num_nodes - 1)) / (2 * trips)
    assert per_trip <= 4 * math.log2(num_nodes), (per_trip, num_nodes)
    return {
        "size": num_nodes,
        "rounds": cascade.num_rounds,
        "total_trips": trips,
        "dynconn_seconds": seconds,
        "dynconn_tree_ops": spent["dynconn_tree_ops"],
        "tree_ops_per_trip": per_trip,
    }


def run_benchmark(smoke: bool = False):
    size = SMOKE_NUM_NODES if smoke else NUM_NODES
    moves = SMOKE_NUM_MOVES if smoke else NUM_MOVES
    cascade_size = SMOKE_CASCADE_NUM_NODES if smoke else CASCADE_NUM_NODES
    anneal = time_replay(size, moves, SEED)
    cascade = time_cascade(cascade_size, SEED + 1)
    results = {
        "mode": "smoke" if smoke else "full",
        "anneal": anneal,
        "cascade": cascade,
    }
    rows = [
        {
            "workload": f"deletion-heavy moves (n={anneal['size']})",
            "seconds": round(anneal["dynconn_seconds"], 3),
            "deletions": anneal["deletion_moves"],
            "tree_ops": anneal["dynconn_tree_ops"],
        },
        {
            "workload": f"failure cascade (n={cascade['size']})",
            "seconds": round(cascade["dynconn_seconds"], 3),
            "deletions": cascade["total_trips"],
            "tree_ops": cascade["dynconn_tree_ops"],
        },
    ]
    return results, rows


def check_acceptance(results):
    anneal = results["anneal"]
    assert anneal["served_demand_matches_oracle"]
    assert 2 * anneal["deletion_moves"] >= anneal["moves"], anneal
    cascade = results["cascade"]
    assert cascade["tree_ops_per_trip"] <= 4 * math.log2(cascade["size"])


def main(smoke: bool = False):
    results, rows = run_benchmark(smoke=smoke)
    check_acceptance(results)
    path = write_bench_json("dynconn", results)
    emit_rows(
        "dynconn",
        "dynamic-connectivity engine under deletion-heavy moves",
        rows,
        slug="dynamic_connectivity",
    )
    print(f"\nwrote {path}")


def test_dynamic_connectivity_engine():
    """Oracle, restore, and polylog gates at the CI size."""
    main(smoke=True)


if __name__ == "__main__":
    main(smoke="--smoke" in sys.argv[1:])
