"""Barabási–Albert preferential attachment (degree-based baseline).

The BA model [7 in the paper] is the archetypal degree-based generator: new
nodes attach to ``m`` existing nodes with probability proportional to degree,
producing a power-law degree distribution with exponent ~3 regardless of any
economic or geographic input — exactly the kind of "evocative" model the paper
argues against, and therefore the most important comparator in E5.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ..topology.graph import Topology
from .base import TopologyGenerator
from .sampling import MultisetSampler


@dataclass
class BarabasiAlbertGenerator(TopologyGenerator):
    """Preferential attachment generator.

    Attributes:
        links_per_node: Number of links each arriving node creates (``m``).
    """

    links_per_node: int = 2
    name: str = "barabasi-albert"

    def __post_init__(self) -> None:
        if self.links_per_node < 1:
            raise ValueError("links_per_node must be >= 1")

    def generate(self, num_nodes: int, seed: Optional[int] = None) -> Topology:
        m = self.links_per_node
        if num_nodes < m + 1:
            raise ValueError(f"num_nodes must be at least links_per_node + 1 = {m + 1}")
        rng = random.Random(seed)
        topology = Topology(name=f"barabasi-albert-n{num_nodes}-m{m}")
        topology.metadata["model"] = self.name
        topology.metadata["m"] = m

        # Seed clique of m + 1 nodes so the first arrival has m distinct targets.
        for node_id in range(m + 1):
            topology.add_node(node_id)
        for u in range(m + 1):
            for v in range(u + 1, m + 1):
                topology.add_link(u, v)

        # The sampler holds each node once per unit of degree, so its uniform
        # O(1) draw is a draw proportional to degree.
        sampler = MultisetSampler()
        for node_id in range(m + 1):
            sampler.add(node_id, topology.degree(node_id))

        for new_id in range(m + 1, num_nodes):
            targets = set()
            while len(targets) < m:
                targets.add(sampler.sample(rng))
            topology.add_node(new_id)
            for target in targets:
                topology.add_link(new_id, target)
                sampler.add(target)
            sampler.add(new_id, m)
        return topology
