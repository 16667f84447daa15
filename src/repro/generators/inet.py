"""Inet-style degree-sequence generator (degree-based baseline).

Inet [21 in the paper] generates AS-level topologies by (1) prescribing a
power-law degree sequence, (2) building a spanning tree among nodes of degree
at least two to guarantee connectivity, and (3) matching the remaining degree
"stubs" preferentially by remaining degree.  This implementation follows that
three-phase structure.

All three phases draw through :class:`~repro.generators.sampling.FenwickSampler`
instances that mirror the seed's candidate lists — the growing core prefix in
phase 1, the full core in phase 2, and the open (positive-remaining) nodes in
phase 3 — with weights updated incrementally as stubs are consumed, replacing
the seed's O(n) candidate rebuild and linear scan per draw with O(log n)
updates and draws.  All weights are integers, so the sampler's prefix sums
are exact and every draw is provably bit-identical to the seed's scan.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ..topology.graph import Topology
from .base import TopologyGenerator
from .plrg import power_law_degree_sequence
from .sampling import FenwickSampler


@dataclass
class InetGenerator(TopologyGenerator):
    """Inet-style generator: power-law degrees + spanning tree + preferential fill.

    Attributes:
        exponent: Power-law exponent of the prescribed degree sequence.
        min_degree: Minimum prescribed degree.
        max_degree_fraction: Cap on the maximum degree as a fraction of n.
    """

    exponent: float = 2.2
    min_degree: int = 1
    max_degree_fraction: float = 0.3
    name: str = "inet"

    def __post_init__(self) -> None:
        if not 0 < self.max_degree_fraction <= 1:
            raise ValueError("max_degree_fraction must be in (0, 1]")

    def generate(self, num_nodes: int, seed: Optional[int] = None) -> Topology:
        if num_nodes < 3:
            raise ValueError("num_nodes must be >= 3")
        rng = random.Random(seed)
        max_degree = max(self.min_degree, int(self.max_degree_fraction * num_nodes))
        degrees = power_law_degree_sequence(
            num_nodes, self.exponent, self.min_degree, max_degree, rng
        )
        degrees.sort(reverse=True)

        topology = Topology(name=f"inet-n{num_nodes}")
        topology.metadata["model"] = self.name
        topology.metadata["exponent"] = self.exponent
        for node_id in range(num_nodes):
            topology.add_node(node_id, target_degree=degrees[node_id])

        remaining = list(degrees)

        # Phases 1 and 2 sample over the core with weight max(remaining, 1):
        # a Fenwick tree in core order, grown one position per phase-1 step so
        # its prefix always equals the seed's ``core_nodes[:position]`` list.
        core_nodes = [n for n in range(num_nodes) if degrees[n] >= 2] or [0, 1]
        core_position = {node: pos for pos, node in enumerate(core_nodes)}
        core_sampler = FenwickSampler(len(core_nodes))

        def core_weight_changed(node: int) -> None:
            pos = core_position.get(node)
            if pos is not None and pos < inserted:
                core_sampler.set_weight(pos, max(remaining[node], 1))

        # Phase 1: spanning tree over nodes with prescribed degree >= 2,
        # attaching each new node to a preferentially chosen earlier node.
        core_sampler.set_weight(0, max(remaining[core_nodes[0]], 1))
        inserted = 1
        for position in range(1, len(core_nodes)):
            node = core_nodes[position]
            target = core_nodes[core_sampler.sample(rng)]
            if not topology.has_link(node, target):
                topology.add_link(node, target)
                remaining[node] -= 1
                remaining[target] -= 1
                core_weight_changed(target)
            core_sampler.set_weight(position, max(remaining[node], 1))
            inserted = position + 1

        # Phase 2: attach degree-1 nodes to the core preferentially.
        leaf_nodes = [n for n in range(num_nodes) if degrees[n] < 2 and n not in core_position]
        for node in leaf_nodes:
            target = core_nodes[core_sampler.sample(rng)]
            if not topology.has_link(node, target):
                topology.add_link(node, target)
                remaining[node] -= 1
                remaining[target] -= 1
                core_weight_changed(target)

        # Phase 3: consume remaining stubs by preferential matching over the
        # open nodes (remaining > 0), weight = remaining.
        open_sampler = FenwickSampler(num_nodes)
        for node in range(num_nodes):
            if remaining[node] > 0:
                open_sampler.set_weight(node, remaining[node])

        def open_weight_changed(node: int) -> None:
            open_sampler.set_weight(node, remaining[node] if remaining[node] > 0 else 0)

        attempts = 0
        max_attempts = 20 * num_nodes
        while attempts < max_attempts:
            attempts += 1
            if open_sampler.active_count < 2:
                break
            u = open_sampler.sample(rng)
            # Exclude u for the second draw by zeroing its weight, exactly the
            # seed's ``[n for n in open_nodes if n != u]`` candidate list.
            u_weight = open_sampler.weight(u)
            open_sampler.set_weight(u, 0)
            v = open_sampler.sample(rng)
            open_sampler.set_weight(u, u_weight)
            if not topology.has_link(u, v):
                topology.add_link(u, v)
                remaining[u] -= 1
                remaining[v] -= 1
                open_weight_changed(u)
                open_weight_changed(v)
        return topology
