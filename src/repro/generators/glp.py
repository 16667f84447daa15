"""Generalized Linear Preference (GLP) generator (degree-based baseline).

Bu and Towsley [8 in the paper] proposed GLP to better match Internet
clustering than plain preferential attachment: attachment probability is
proportional to ``degree - beta_glp`` (with ``beta_glp < 1``), and each step
either adds a new node with ``m`` links (probability ``p_new``) or adds ``m``
extra links between existing nodes (probability ``1 - p_new``).

The growth loop runs against the shared generation engine
(:mod:`repro.generators.sampling`): node degrees are maintained incrementally
in a :class:`~repro.generators.sampling.FenwickSampler` keyed by node id, so
each preferential draw costs O(log n) instead of rebuilding the candidate and
weight lists (with one ``Topology.degree`` call per candidate) and scanning
them linearly, as the seed implementation did.  The sampler reproduces the
seed's inverse-CDF semantics — one ``rng.random()`` per attempt, mapped to
the smallest node whose cumulative ``max(1e-9, degree - beta)`` weight
reaches ``u * total`` — so seeded outputs are bit-identical (pinned by the
hash regression tests in ``tests/generators/test_seed_stability.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from ..topology.graph import Topology, TopologyError
from .base import TopologyGenerator
from .sampling import FenwickSampler


@dataclass
class GLPGenerator(TopologyGenerator):
    """Generalized Linear Preference generator.

    Attributes:
        links_per_step: Number of links added per step (``m``).
        p_new: Probability that a step adds a new node (vs. only new links).
        beta_glp: Preference shift; smaller values bias attachment more
            strongly toward high-degree nodes.
    """

    links_per_step: int = 1
    p_new: float = 0.66
    beta_glp: float = 0.15
    name: str = "glp"

    def __post_init__(self) -> None:
        if self.links_per_step < 1:
            raise ValueError("links_per_step must be >= 1")
        if not 0 < self.p_new <= 1:
            raise ValueError("p_new must be in (0, 1]")
        if self.beta_glp >= 1:
            raise ValueError("beta_glp must be < 1")

    def generate(self, num_nodes: int, seed: Optional[int] = None) -> Topology:
        m = self.links_per_step
        if num_nodes < m + 2:
            raise ValueError(f"num_nodes must be at least links_per_step + 2 = {m + 2}")
        rng = random.Random(seed)
        topology = Topology(name=f"glp-n{num_nodes}")
        topology.metadata["model"] = self.name
        topology.metadata["p_new"] = self.p_new
        topology.metadata["beta_glp"] = self.beta_glp

        # Small seed path graph.
        for node_id in range(m + 2):
            topology.add_node(node_id)
        for node_id in range(m + 1):
            topology.add_link(node_id, node_id + 1)

        # New nodes get ids m+2 .. num_nodes-1, so num_nodes bounds every id.
        degrees = [0] * num_nodes
        sampler = FenwickSampler(num_nodes)
        beta = self.beta_glp
        for node_id in range(m + 2):
            degrees[node_id] = topology.degree(node_id)
            sampler.set_weight(node_id, max(1e-9, degrees[node_id] - beta))

        next_id = m + 2
        max_steps = 50 * num_nodes
        steps = 0
        while topology.num_nodes < num_nodes and steps < max_steps:
            steps += 1
            if rng.random() < self.p_new:
                new_id = next_id
                next_id += 1
                # The new node enters the sampler only after its links exist,
                # which is exactly the seed's ``exclude={new_id}``.
                topology.add_node(new_id)
                targets = self._sample_distinct(sampler, rng, m)
                for target in targets:
                    if not topology.has_link(new_id, target):
                        topology.add_link(new_id, target)
                        degrees[new_id] += 1
                        degrees[target] += 1
                        sampler.set_weight(target, max(1e-9, degrees[target] - beta))
                sampler.set_weight(new_id, max(1e-9, degrees[new_id] - beta))
            else:
                for _ in range(m):
                    pair = self._sample_distinct(sampler, rng, 2)
                    if len(pair) == 2 and not topology.has_link(pair[0], pair[1]):
                        topology.add_link(pair[0], pair[1])
                        for endpoint in pair:
                            degrees[endpoint] += 1
                            sampler.set_weight(
                                endpoint, max(1e-9, degrees[endpoint] - beta)
                            )
        if topology.num_nodes < num_nodes:
            raise TopologyError(
                f"GLP undershoot: step cap {max_steps} reached with only "
                f"{topology.num_nodes} of {num_nodes} nodes (p_new={self.p_new}); "
                "raise p_new or the step budget"
            )
        return topology

    @staticmethod
    def _sample_distinct(
        sampler: FenwickSampler, rng: random.Random, count: int
    ) -> List[int]:
        """Sample ``count`` distinct nodes with probability ∝ (degree - beta).

        Mirrors the seed's retry loop: one ``rng.random()`` per attempt, a
        draw that lands on an already-chosen node is discarded, and at most
        ``100 * count`` attempts are made.
        """
        wanted = min(count, sampler.active_count)
        chosen: List[int] = []
        attempts = 0
        while len(chosen) < wanted and attempts < 100 * count:
            attempts += 1
            candidate = sampler.sample(rng)
            if candidate not in chosen:
                chosen.append(candidate)
        return chosen
