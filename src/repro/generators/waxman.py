"""Waxman random geometric graphs (structural baseline).

The Waxman model places nodes uniformly in a region and connects each pair
with probability ``beta * exp(-d / (alpha_w * L))`` where ``d`` is their
distance and ``L`` the region diagonal.  It is the classic "structural"
generator the paper's reference [33] (Zegura et al.) compares against.

Instead of testing all ``n*(n-1)/2`` pairs, the generator buckets the nodes
into a uniform grid
(:class:`~repro.geography.spatial_index.GridBuckets`) and, for every pair of
cells, draws candidate pairs by geometric skip-sampling at the cell pair's
probability *upper bound* ``p_max = beta * exp(-d_min(cells) / (alpha_w *
L))``, then accepts each candidate with ``p(d) / p_max`` (rejection).  The
resulting edge distribution is exactly the Waxman distribution, but the
random stream differs from the seed's pair loop, so per-seed outputs change;
the equivalence is gated statistically (expected link count within 3 sigma,
degree-distribution KS test against the seed's per-pair loop, which
``tests/oracles.py`` keeps) in ``tests/generators/test_generators.py``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from ..geography.points import euclidean
from ..geography.regions import Region, unit_square
from ..geography.spatial_index import GridBuckets
from ..topology.graph import Topology
from .base import TopologyGenerator, ensure_connected
from .sampling import skip_sampled_indices, skip_sampled_pairs


@dataclass
class WaxmanGenerator(TopologyGenerator):
    """Waxman (1988) random geometric graph generator.

    Attributes:
        alpha_w: Distance decay scale (larger = longer links more likely;
            ``inf`` removes the distance decay).
        beta: Overall link probability scale.
        region: Placement region (unit square by default).
        connect: Patch the result into one connected component.
    """

    alpha_w: float = 0.2
    beta: float = 0.4
    region: Optional[Region] = None
    connect: bool = True
    name: str = "waxman"

    def __post_init__(self) -> None:
        if not self.alpha_w > 0:
            raise ValueError(f"alpha_w must be positive, got {self.alpha_w}")
        if not 0 < self.beta <= 1:
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")

    def generate(self, num_nodes: int, seed: Optional[int] = None) -> Topology:
        if num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        rng = random.Random(seed)
        region = self.region or unit_square()
        locations = region.sample_uniform(num_nodes, rng)
        diagonal = region.diagonal

        topology = Topology(name=f"waxman-n{num_nodes}")
        topology.metadata["model"] = self.name
        topology.metadata["alpha_w"] = self.alpha_w
        topology.metadata["beta"] = self.beta
        for node_id in range(num_nodes):
            topology.add_node(node_id, location=locations[node_id])

        self._generate_links_grid(topology, locations, region, self.alpha_w * diagonal, rng)
        if self.connect:
            ensure_connected(topology, rng)
        return topology

    def _generate_links_grid(
        self,
        topology: Topology,
        locations: Sequence[Tuple[float, float]],
        region: Region,
        scale: float,
        rng: random.Random,
    ) -> None:
        """Grid-bucketed pair sampling; every unordered pair is covered once."""
        beta = self.beta
        cells_per_side = max(1, int(round(len(locations) ** 0.25)))
        buckets = GridBuckets(locations, region, cells_per_side)
        cells = buckets.cells
        for a in range(len(cells)):
            key_a, members_a = cells[a]
            for b in range(a, len(cells)):
                key_b, members_b = cells[b]
                p_max = beta * math.exp(-buckets.min_distance(key_a, key_b) / scale)
                if a == b:
                    pair_iter = self._same_cell_pairs(members_a, p_max, rng)
                else:
                    pair_iter = self._cross_cell_pairs(members_a, members_b, p_max, rng)
                for u, v in pair_iter:
                    distance = euclidean(locations[u], locations[v])
                    probability = beta * math.exp(-distance / scale)
                    # Accept with probability p(d) / p_max  (p(d) <= p_max
                    # because d >= d_min between the two cells).
                    if rng.random() * p_max < probability:
                        topology.add_link(u, v)

    @staticmethod
    def _same_cell_pairs(
        members: List[int], p_max: float, rng: random.Random
    ) -> Iterator[Tuple[int, int]]:
        """Skip-sampled candidate pairs (i < j) within one cell."""
        for i, j in skip_sampled_pairs(len(members), p_max, rng):
            yield members[i], members[j]

    @staticmethod
    def _cross_cell_pairs(
        members_a: List[int], members_b: List[int], p_max: float, rng: random.Random
    ) -> Iterator[Tuple[int, int]]:
        """Skip-sampled candidate pairs across two distinct cells."""
        width = len(members_b)
        total_pairs = len(members_a) * width
        for flat in skip_sampled_indices(total_pairs, p_max, rng):
            yield members_a[flat // width], members_b[flat % width]
