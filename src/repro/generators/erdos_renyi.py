"""Erdős–Rényi random graphs (the null-model baseline).

Edges are drawn by geometric skip-sampling over the flattened pair order
(:func:`~repro.generators.sampling.skip_sampled_pairs`): the per-pair edge
distribution is exactly Bernoulli(p), but the cost is O(n + expected_links)
instead of the seed's O(n^2) per-pair loop.  The random stream differs from
the seed's, so per-seed outputs changed with the generation-engine rewrite;
G(n, p) itself is unchanged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ..topology.graph import Topology
from .base import TopologyGenerator, ensure_connected
from .sampling import skip_sampled_pairs


@dataclass
class ErdosRenyiGenerator(TopologyGenerator):
    """G(n, p) random graph.

    Attributes:
        edge_probability: Probability of each possible edge; when ``None`` it
            is chosen as ``target_mean_degree / (n - 1)``.
        target_mean_degree: Mean degree used to derive ``p`` when
            ``edge_probability`` is not given.
        connect: Patch the graph into a single connected component.
    """

    edge_probability: Optional[float] = None
    target_mean_degree: float = 4.0
    connect: bool = True
    name: str = "erdos-renyi"

    def __post_init__(self) -> None:
        if self.edge_probability is not None and not 0 <= self.edge_probability <= 1:
            raise ValueError("edge_probability must be in [0, 1]")
        if self.target_mean_degree <= 0:
            raise ValueError("target_mean_degree must be positive")

    def generate(self, num_nodes: int, seed: Optional[int] = None) -> Topology:
        if num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        rng = random.Random(seed)
        p = self.edge_probability
        if p is None:
            p = min(1.0, self.target_mean_degree / max(1, num_nodes - 1))
        topology = Topology(name=f"erdos-renyi-n{num_nodes}")
        topology.metadata["model"] = self.name
        topology.metadata["p"] = p
        for node_id in range(num_nodes):
            topology.add_node(node_id)
        for u, v in skip_sampled_pairs(num_nodes, p, rng):
            topology.add_link(u, v)
        if self.connect:
            ensure_connected(topology, rng)
        return topology
