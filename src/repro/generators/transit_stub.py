"""Transit-stub structural generator (GT-ITM style).

Zegura, Calvert, and Donahoo [33 in the paper] generate Internet-like graphs
by imposing a two-level hierarchy explicitly: a small random "transit" core,
several "stub" domains attached to transit nodes, and random extra edges.
This is the canonical *structural* generator the paper's critique targets —
hierarchy is imposed rather than emerging from economic forces — and serves as
the structural comparator in experiment E5.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from ..topology.graph import Topology
from ..topology.node import NodeRole
from .base import TopologyGenerator, ensure_connected
from .sampling import skip_sampled_pairs


@dataclass
class TransitStubGenerator(TopologyGenerator):
    """GT-ITM-style transit-stub generator.

    The target node count is split between one transit domain and
    ``num_stub_domains`` stub domains attached to transit nodes.

    Attributes:
        num_stub_domains: Number of stub domains.
        transit_fraction: Fraction of nodes placed in the transit domain.
        transit_edge_probability: Edge probability inside the transit domain.
        stub_edge_probability: Edge probability inside each stub domain.
        extra_transit_stub_links: Additional random transit-to-stub links
            beyond the one mandatory uplink per stub domain.
    """

    num_stub_domains: int = 8
    transit_fraction: float = 0.1
    transit_edge_probability: float = 0.6
    stub_edge_probability: float = 0.3
    extra_transit_stub_links: int = 2
    name: str = "transit-stub"

    def __post_init__(self) -> None:
        if self.num_stub_domains < 1:
            raise ValueError("num_stub_domains must be >= 1")
        if not 0 < self.transit_fraction < 1:
            raise ValueError("transit_fraction must be in (0, 1)")
        for probability in (self.transit_edge_probability, self.stub_edge_probability):
            if not 0 <= probability <= 1:
                raise ValueError("edge probabilities must be in [0, 1]")
        if self.extra_transit_stub_links < 0:
            raise ValueError("extra_transit_stub_links must be non-negative")

    def generate(self, num_nodes: int, seed: Optional[int] = None) -> Topology:
        if num_nodes < self.num_stub_domains + 2:
            raise ValueError(
                f"num_nodes must be at least num_stub_domains + 2 = {self.num_stub_domains + 2}"
            )
        rng = random.Random(seed)
        topology = Topology(name=f"transit-stub-n{num_nodes}")
        topology.metadata["model"] = self.name

        num_transit = max(2, int(round(self.transit_fraction * num_nodes)))
        num_stub_nodes = num_nodes - num_transit

        transit_nodes = self._build_transit(topology, num_transit, rng)
        self._build_stubs(topology, transit_nodes, num_stub_nodes, rng)
        ensure_connected(topology, rng)
        return topology

    def _build_transit(
        self, topology: Topology, num_transit: int, rng: random.Random
    ) -> List[str]:
        transit_nodes = []
        for index in range(num_transit):
            node_id = f"t{index}"
            topology.add_node(node_id, role=NodeRole.BACKBONE, domain="transit")
            transit_nodes.append(node_id)
        # Ring for guaranteed transit connectivity, then random chords.
        for index in range(num_transit):
            a = transit_nodes[index]
            b = transit_nodes[(index + 1) % num_transit]
            if not topology.has_link(a, b):
                topology.add_link(a, b)
        for i, j in skip_sampled_pairs(num_transit, self.transit_edge_probability, rng):
            if not topology.has_link(transit_nodes[i], transit_nodes[j]):
                topology.add_link(transit_nodes[i], transit_nodes[j])
        return transit_nodes

    def _build_stubs(
        self,
        topology: Topology,
        transit_nodes: List[str],
        num_stub_nodes: int,
        rng: random.Random,
    ) -> None:
        base_size = num_stub_nodes // self.num_stub_domains
        leftover = num_stub_nodes % self.num_stub_domains
        for domain in range(self.num_stub_domains):
            size = base_size + (1 if domain < leftover else 0)
            if size == 0:
                continue
            stub_nodes = []
            for index in range(size):
                node_id = f"s{domain}.{index}"
                topology.add_node(
                    node_id, role=NodeRole.DISTRIBUTION, domain=f"stub{domain}"
                )
                stub_nodes.append(node_id)
            # Path backbone within the stub, plus random chords.
            for a, b in zip(stub_nodes, stub_nodes[1:]):
                topology.add_link(a, b)
            # min_gap=2 skips the path-adjacent pairs already linked above.
            for i, j in skip_sampled_pairs(size, self.stub_edge_probability, rng, min_gap=2):
                if not topology.has_link(stub_nodes[i], stub_nodes[j]):
                    topology.add_link(stub_nodes[i], stub_nodes[j])
            # One mandatory uplink plus optional extra transit-stub links.
            gateway = stub_nodes[rng.randrange(size)]
            transit_anchor = transit_nodes[rng.randrange(len(transit_nodes))]
            if not topology.has_link(gateway, transit_anchor):
                topology.add_link(gateway, transit_anchor)
            for _ in range(self.extra_transit_stub_links):
                if rng.random() < 0.5:
                    extra_stub = stub_nodes[rng.randrange(size)]
                    extra_transit = transit_nodes[rng.randrange(len(transit_nodes))]
                    if not topology.has_link(extra_stub, extra_transit):
                        topology.add_link(extra_stub, extra_transit)
