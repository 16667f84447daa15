"""Property tests: compiled kernels agree with pure-Python references.

Seeded random topologies (~200 nodes) are run through both the compiled
CSR kernels (directly, or as exposed by the public APIs) and straightforward
object-graph reference implementations kept here: dictionary Dijkstra, dictionary BFS,
set-based components, and a copy-per-step removal trace.  Agreement is exact,
including after mutations that bump ``Topology.version``.
"""

import heapq
import random

import pytest

from repro.metrics.resilience import removal_trace
from repro.optimization.shortest_path import all_pairs_shortest_lengths
from repro.topology.compiled import dijkstra_indices, multi_source_dijkstra_indices
from repro.topology.graph import Topology
from repro.topology.node import NodeRole


# ----------------------------------------------------------------------
# Reference implementations (object graph, no compiled view)
# ----------------------------------------------------------------------
def _default_weight(link):
    return link.length if link.length > 0 else 1.0


def reference_dijkstra(topology, source, weight=None):
    if weight is None:
        weight = _default_weight
    distances = {source: 0.0}
    visited = set()
    counter = 0
    heap = [(0.0, counter, source)]
    while heap:
        distance, _, current = heapq.heappop(heap)
        if current in visited:
            continue
        visited.add(current)
        for link in topology.incident_links(current):
            neighbor = link.other_end(current)
            if neighbor in visited:
                continue
            candidate = distance + weight(link)
            if candidate < distances.get(neighbor, float("inf")):
                distances[neighbor] = candidate
                counter += 1
                heapq.heappush(heap, (candidate, counter, neighbor))
    return distances


def reference_hop_distances(topology, source):
    distances = {source: 0}
    queue = [source]
    head = 0
    while head < len(queue):
        current = queue[head]
        head += 1
        for neighbor in topology.neighbors(current):
            if neighbor not in distances:
                distances[neighbor] = distances[current] + 1
                queue.append(neighbor)
    return distances


def reference_components(topology):
    remaining = set(topology.node_ids())
    components = []
    while remaining:
        seed = next(iter(remaining))
        component = set(reference_hop_distances(topology, seed))
        components.append(frozenset(component))
        remaining -= component
    return set(components)


def reference_removal_trace(topology, strategy, steps, max_fraction, seed):
    """Copy-per-step removal trace with the library's tie-break rules.

    Targeted removal picks the highest-degree node, breaking ties in node
    insertion order of the original topology.
    """
    working = topology.copy()
    original_size = topology.num_nodes
    insertion_rank = {nid: i for i, nid in enumerate(topology.node_ids())}
    total_demand = sum(
        node.demand for node in topology.nodes() if node.role == NodeRole.CUSTOMER
    )
    rng = random.Random(seed)
    removable = list(topology.node_ids())
    total_to_remove = min(int(max_fraction * original_size), len(removable))
    per_step = max(1, total_to_remove // steps)

    def largest_fraction():
        if working.num_nodes == 0:
            return 0.0
        components = reference_components(working)
        return max(len(c) for c in components) / original_size

    def demand_loss_fraction():
        if total_demand <= 0:
            return 0.0
        cores = [n.node_id for n in working.nodes() if n.role == NodeRole.CORE]
        if not cores:
            return 0.0
        reachable = set()
        for core in cores:
            reachable.update(reference_hop_distances(working, core))
        connected = sum(
            node.demand
            for node in working.nodes()
            if node.role == NodeRole.CUSTOMER and node.node_id in reachable
        )
        return 1.0 - connected / total_demand

    fractions = [0.0]
    largest = [largest_fraction()]
    demand_loss = [demand_loss_fraction()]
    removed = 0
    if strategy == "random":
        rng.shuffle(removable)
    while removed < total_to_remove:
        batch = min(per_step, total_to_remove - removed)
        for _ in range(batch):
            if strategy == "targeted":
                candidates = [n for n in removable if working.has_node(n)]
                if not candidates:
                    break
                victim = max(
                    candidates,
                    key=lambda n: (working.degree(n), -insertion_rank[n]),
                )
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
            working.remove_node(victim)
            removed += 1
        fractions.append(removed / original_size)
        largest.append(largest_fraction())
        demand_loss.append(demand_loss_fraction())
        if not removable:
            break
    return fractions, largest, demand_loss


# ----------------------------------------------------------------------
# Random topology factory
# ----------------------------------------------------------------------
def random_topology(seed: int, num_nodes: int = 200, num_links: int = 420) -> Topology:
    rng = random.Random(seed)
    topo = Topology(name=f"random-{seed}")
    for i in range(num_nodes):
        role = rng.choice(
            [NodeRole.GENERIC, NodeRole.CORE, NodeRole.CUSTOMER, NodeRole.ACCESS]
        )
        demand = rng.uniform(0.5, 4.0) if role == NodeRole.CUSTOMER else 0.0
        topo.add_node(f"n{i}", role=role, demand=demand)
    added = 0
    while added < num_links:
        u, v = rng.sample(range(num_nodes), 2)
        if not topo.has_link(f"n{u}", f"n{v}"):
            topo.add_link(f"n{u}", f"n{v}", length=rng.uniform(0.1, 10.0))
            added += 1
    return topo


def mutate(topology: Topology, seed: int) -> None:
    """Apply structural mutations that must bump the version."""
    rng = random.Random(seed)
    node_ids = list(topology.node_ids())
    removed = 0
    for node_id in rng.sample(node_ids, 5):
        topology.remove_node(node_id)
        removed += 1
    survivors = list(topology.node_ids())
    added = 0
    while added < 8:
        u, v = rng.sample(survivors, 2)
        if not topology.has_link(u, v):
            topology.add_link(u, v, length=rng.uniform(0.1, 10.0))
            added += 1
    topology.add_node("extra")
    topology.add_link("extra", survivors[0], length=1.0)


# ----------------------------------------------------------------------
# Compiled kernels, translated back to node ids
# ----------------------------------------------------------------------
def dijkstra(topology, source):
    """``dijkstra_indices`` from ``source`` as id-keyed ``(distances, predecessors)``.

    Unreachable nodes are absent from both maps; the source has no predecessor.
    """
    graph = topology.compiled()
    dist, pred, _ = dijkstra_indices(graph, graph.index_of[source], graph.edge_weights())
    ids = graph.ids
    distances = {ids[i]: d for i, d in enumerate(dist) if d != float("inf")}
    predecessors = {ids[i]: ids[p] for i, p in enumerate(pred) if p >= 0}
    return distances, predecessors


def multi_source_dijkstra(topology, sources):
    """``multi_source_dijkstra_indices`` as id-keyed ``(distances, nearest_source)``."""
    graph = topology.compiled()
    indices = [graph.index_of[s] for s in sources]
    dist, _, _, origin = multi_source_dijkstra_indices(graph, indices, graph.edge_weights())
    ids = graph.ids
    distances = {ids[i]: d for i, d in enumerate(dist) if d != float("inf")}
    nearest = {ids[i]: ids[o] for i, o in enumerate(origin) if o >= 0}
    return distances, nearest


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dijkstra_matches_reference(seed):
    topo = random_topology(seed)
    rng = random.Random(seed + 100)
    for source in rng.sample(list(topo.node_ids()), 10):
        distances, predecessors = dijkstra(topo, source)
        assert distances == reference_dijkstra(topo, source)
        # Predecessor map must reconstruct paths of exactly the right length.
        for target, distance in distances.items():
            node, walked = target, 0.0
            while node != source:
                parent = predecessors[node]
                length = topo.link(parent, node).length
                walked += length if length > 0 else 1.0
                node = parent
            assert walked == pytest.approx(distance)


@pytest.mark.parametrize("seed", [3, 4])
def test_hop_distances_and_components_match_reference(seed):
    topo = random_topology(seed, num_links=230)  # sparse: leaves components
    rng = random.Random(seed)
    for source in rng.sample(list(topo.node_ids()), 10):
        assert topo.hop_distances(source) == reference_hop_distances(topo, source)
    assert {frozenset(c) for c in topo.connected_components()} == reference_components(
        topo
    )


@pytest.mark.parametrize("seed", [5, 6])
def test_all_pairs_matches_per_source_reference(seed):
    topo = random_topology(seed, num_nodes=80, num_links=160)
    lengths = all_pairs_shortest_lengths(topo)
    for source in topo.node_ids():
        assert lengths[source] == reference_dijkstra(topo, source)


@pytest.mark.parametrize("seed", [7, 8])
def test_multi_source_matches_min_over_single_sources(seed):
    topo = random_topology(seed)
    rng = random.Random(seed)
    sources = rng.sample(list(topo.node_ids()), 6)
    distances, nearest = multi_source_dijkstra(topo, sources)
    per_source = {s: reference_dijkstra(topo, s) for s in sources}
    for node, distance in distances.items():
        best = min(per_source[s].get(node, float("inf")) for s in sources)
        assert distance == pytest.approx(best)
        assert per_source[nearest[node]].get(node) == pytest.approx(distance)
    for s in sources:
        for node, d in per_source[s].items():
            assert node in distances


@pytest.mark.parametrize("strategy", ["random", "targeted"])
@pytest.mark.parametrize("seed", [9, 10])
def test_removal_trace_matches_copy_per_step_reference(strategy, seed):
    topo = random_topology(seed, num_nodes=120, num_links=200)
    trace = removal_trace(topo, strategy=strategy, steps=6, max_fraction=0.4, seed=seed)
    fractions, largest, demand_loss = reference_removal_trace(
        topo, strategy, steps=6, max_fraction=0.4, seed=seed
    )
    assert trace.fractions_removed == pytest.approx(fractions)
    assert trace.largest_component_fraction == pytest.approx(largest)
    assert trace.disconnected_demand_fraction == pytest.approx(demand_loss)
    # The input topology must be untouched by the mask-based trace.
    assert topo.num_nodes == 120


@pytest.mark.parametrize("seed", [11, 12])
def test_kernels_agree_after_mutations(seed):
    topo = random_topology(seed)
    before = topo.version
    dijkstra(topo, "n0")  # warm the compiled cache
    mutate(topo, seed)
    assert topo.version > before
    rng = random.Random(seed)
    for source in rng.sample(list(topo.node_ids()), 8):
        assert dijkstra(topo, source)[0] == reference_dijkstra(topo, source)
        assert topo.hop_distances(source) == reference_hop_distances(topo, source)
    assert {frozenset(c) for c in topo.connected_components()} == reference_components(
        topo
    )
