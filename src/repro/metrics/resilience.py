"""Resilience: robustness of connectivity under node/link removal.

Two uses in the reproduction:

* the Tangmunarunkit et al. "resilience" metric (size of the largest component
  as nodes are removed), part of the E5 generator comparison; and
* the HOT robust-yet-fragile signature (experiment E7): optimization-driven
  designs tolerate random failures (most nodes are leaves) but are fragile to
  targeted removal of their high-degree aggregation hubs — "robustness ... is
  a constrained and limited quantity", Section 3.1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..topology.compiled import (
    CompiledGraph,
    components_indices,
    multi_source_bfs_indices,
)
from ..topology.graph import Topology
from ..topology.node import NodeRole


@dataclass
class RemovalTrace:
    """Largest-component trajectory under progressive node removal.

    Attributes:
        strategy: ``"random"`` or ``"targeted"``.
        fractions_removed: Fraction of nodes removed at each step.
        largest_component_fraction: Size of the largest remaining component as
            a fraction of the original node count, per step.
        disconnected_demand_fraction: Fraction of total customer demand whose
            node is removed or disconnected from every core node, per step
            (0 when the topology has no core/customer annotations).
    """

    strategy: str
    fractions_removed: List[float]
    largest_component_fraction: List[float]
    disconnected_demand_fraction: List[float]

    def area_under_curve(self) -> float:
        """Mean largest-component fraction over the removal trajectory.

        A scalar robustness summary: 1.0 means connectivity is unaffected,
        values near 0 mean the network shatters immediately.
        """
        if not self.largest_component_fraction:
            return 0.0
        return sum(self.largest_component_fraction) / len(self.largest_component_fraction)


def _largest_component_fraction(
    graph: CompiledGraph, alive: bytearray, original_size: int
) -> float:
    if original_size == 0:
        return 0.0
    labels, count = components_indices(graph, alive)
    if count == 0:
        return 0.0
    sizes = [0] * count
    for label in labels:
        if label != -1:
            sizes[label] += 1
    return max(sizes) / original_size


def _disconnected_demand_fraction(
    graph: CompiledGraph,
    alive: bytearray,
    core_indices: List[int],
    customer_indices: List[int],
    demands: List[float],
    total_demand: float,
) -> float:
    if total_demand <= 0:
        return 0.0
    alive_cores = [c for c in core_indices if alive[c]]
    if not alive_cores:
        return 0.0
    dist = multi_source_bfs_indices(graph, alive_cores, alive)
    connected_demand = sum(
        demands[i] for i in customer_indices if alive[i] and dist[i] != -1
    )
    return 1.0 - connected_demand / total_demand


def removal_trace(
    topology: Topology,
    strategy: str = "random",
    steps: int = 20,
    max_fraction: float = 0.5,
    seed: int = 0,
    protect_roles: Sequence[NodeRole] = (),
) -> RemovalTrace:
    """Remove nodes progressively and track connectivity.

    Args:
        topology: Input topology (not modified; removal runs on an index mask
            over the compiled view instead of degrading a copy step by step).
        strategy: ``"random"`` removes uniformly chosen nodes; ``"targeted"``
            removes in decreasing order of (current) degree, breaking ties in
            node insertion order.
        steps: Number of measurement points along the removal trajectory.
        max_fraction: Largest fraction of nodes to remove.
        seed: Random seed for the random strategy.
        protect_roles: Node roles never removed (e.g. protect customers so
            that only infrastructure failures are modeled).
    """
    if strategy not in ("random", "targeted"):
        raise ValueError("strategy must be 'random' or 'targeted'")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not 0 < max_fraction <= 1:
        raise ValueError("max_fraction must be in (0, 1]")

    graph = topology.compiled()
    original_size = graph.num_nodes
    index_of = graph.index_of
    core_indices: List[int] = []
    customer_indices: List[int] = []
    demands = [0.0] * original_size
    total_demand = 0.0
    for node in topology.nodes():
        index = index_of[node.node_id]
        if node.role == NodeRole.CORE:
            core_indices.append(index)
        elif node.role == NodeRole.CUSTOMER:
            customer_indices.append(index)
            demands[index] = node.demand
            total_demand += node.demand
    rng = random.Random(seed)
    protected = set(protect_roles)

    removable = [
        index_of[node.node_id]
        for node in topology.nodes()
        if node.role not in protected
    ]
    total_to_remove = int(max_fraction * original_size)
    total_to_remove = min(total_to_remove, len(removable))
    per_step = max(1, total_to_remove // steps)

    alive = graph.full_mask()
    degrees = graph.degrees()
    indptr = graph.indptr
    indices = graph.indices

    fractions: List[float] = []
    largest: List[float] = []
    demand_loss: List[float] = []
    removed = 0

    def measure() -> None:
        fractions.append(removed / original_size if original_size else 0.0)
        largest.append(_largest_component_fraction(graph, alive, original_size))
        demand_loss.append(
            _disconnected_demand_fraction(
                graph, alive, core_indices, customer_indices, demands, total_demand
            )
        )

    measure()  # the t=0 point, before any removal

    if strategy == "random":
        rng.shuffle(removable)
    else:
        removable_set = set(removable)
    while removed < total_to_remove:
        batch = min(per_step, total_to_remove - removed)
        for _ in range(batch):
            if strategy == "targeted":
                victim = -1
                best_degree = -1
                for candidate in removable_set:
                    if degrees[candidate] > best_degree or (
                        degrees[candidate] == best_degree and candidate < victim
                    ):
                        victim = candidate
                        best_degree = degrees[candidate]
                if victim == -1:
                    break
                removable_set.discard(victim)
            else:
                victim = -1
                while removable:
                    candidate = removable.pop()
                    if alive[candidate]:
                        victim = candidate
                        break
                if victim == -1:
                    break
            if alive[victim]:
                alive[victim] = 0
                for k in range(indptr[victim], indptr[victim + 1]):
                    neighbor = indices[k]
                    if alive[neighbor]:
                        degrees[neighbor] -= 1
                removed += 1
        measure()
        remaining = len(removable_set) if strategy == "targeted" else len(removable)
        if remaining == 0:
            break
    return RemovalTrace(
        strategy=strategy,
        fractions_removed=fractions,
        largest_component_fraction=largest,
        disconnected_demand_fraction=demand_loss,
    )


def robustness_summary(
    topology: Topology, steps: int = 10, max_fraction: float = 0.3, seed: int = 0
) -> Dict[str, float]:
    """Random vs targeted robustness in one dictionary (the E7 headline numbers).

    Keys: ``random_auc``, ``targeted_auc`` (mean largest-component fraction
    under each strategy), and ``fragility_gap`` (their difference — the
    robust-yet-fragile signature: large for HOT designs, small for random
    graphs).
    """
    random_trace = removal_trace(
        topology, strategy="random", steps=steps, max_fraction=max_fraction, seed=seed
    )
    targeted_trace = removal_trace(
        topology, strategy="targeted", steps=steps, max_fraction=max_fraction, seed=seed
    )
    random_auc = random_trace.area_under_curve()
    targeted_auc = targeted_trace.area_under_curve()
    return {
        "random_auc": random_auc,
        "targeted_auc": targeted_auc,
        "fragility_gap": random_auc - targeted_auc,
    }
