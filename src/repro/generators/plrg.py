"""Power-Law Random Graph (PLRG / Aiello–Chung–Lu) generator.

Reference [1] in the paper: assign each node a target degree drawn from a
power law, create that many "stubs" per node, and match stubs uniformly at
random.  The result matches the prescribed degree distribution but has no
geography, no hierarchy, and no cost structure — a pure degree-based
comparator for experiment E5.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import List, Optional

from ..topology.graph import Topology
from .base import TopologyGenerator, ensure_connected


def power_law_degree_sequence(
    num_nodes: int,
    exponent: float,
    min_degree: int,
    max_degree: Optional[int],
    rng: random.Random,
) -> List[int]:
    """Sample a degree sequence from a discrete power law via inverse transform.

    The sequence is adjusted to have an even sum (required for stub matching).
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be >= 1")
    if exponent <= 1:
        raise ValueError("exponent must be > 1")
    if min_degree < 1:
        raise ValueError("min_degree must be >= 1")
    max_degree = max_degree or max(min_degree, num_nodes - 1)
    if max_degree < min_degree:
        raise ValueError("max_degree must be >= min_degree")

    # Discrete power law P(k) ∝ k^-exponent on [min_degree, max_degree].
    weights = [k ** (-exponent) for k in range(min_degree, max_degree + 1)]
    total = sum(weights)
    cumulative = []
    running = 0.0
    for weight in weights:
        running += weight / total
        cumulative.append(running)

    # Inverse transform via bisect on the cumulative table: the first index
    # with cumulative >= u, capped at the last entry — the same comparisons
    # against the same floats as a linear scan, in O(log k) per draw.
    degrees = []
    last = len(cumulative) - 1
    for _ in range(num_nodes):
        u = rng.random()
        index = bisect_left(cumulative, u)
        if index > last:
            index = last
        degrees.append(min_degree + index)
    if sum(degrees) % 2 == 1:
        degrees[rng.randrange(num_nodes)] += 1
    return degrees


@dataclass
class PLRGGenerator(TopologyGenerator):
    """Aiello–Chung–Lu stub-matching power-law generator.

    Attributes:
        exponent: Power-law exponent of the target degree distribution
            (measured AS graphs have roughly 2.1–2.7).
        min_degree: Minimum target degree.
        max_degree: Optional cap on the target degree.
        connect: Patch the result into one connected component.
    """

    exponent: float = 2.2
    min_degree: int = 1
    max_degree: Optional[int] = None
    connect: bool = True
    name: str = "plrg"

    def generate(self, num_nodes: int, seed: Optional[int] = None) -> Topology:
        if num_nodes < 2:
            raise ValueError("num_nodes must be >= 2")
        rng = random.Random(seed)
        degrees = power_law_degree_sequence(
            num_nodes, self.exponent, self.min_degree, self.max_degree, rng
        )
        topology = Topology(name=f"plrg-n{num_nodes}")
        topology.metadata["model"] = self.name
        topology.metadata["exponent"] = self.exponent
        for node_id in range(num_nodes):
            topology.add_node(node_id, target_degree=degrees[node_id])

        stubs: List[int] = []
        for node_id, degree in enumerate(degrees):
            stubs.extend([node_id] * degree)
        rng.shuffle(stubs)
        # Pair consecutive stubs; self-loops and duplicate edges are dropped,
        # which slightly lowers realized degrees (standard for stub matching).
        for index in range(0, len(stubs) - 1, 2):
            u, v = stubs[index], stubs[index + 1]
            if u != v and not topology.has_link(u, v):
                topology.add_link(u, v)
        if self.connect:
            ensure_connected(topology, rng)
        return topology
