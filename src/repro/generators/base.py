"""Common interface and registry for descriptive topology generators.

The paper contrasts its optimization-driven approach with "descriptive or
evocative" generators that match chosen statistics (degree distributions,
hierarchy).  To reproduce that comparison (experiment E5) we implement the
standard families referenced in the paper's introduction and Section 3.2 —
degree-based (Barabási–Albert, GLP, PLRG/Aiello–Chung–Lu, Inet-style) and
structural (Erdős–Rényi, Waxman, transit-stub) — behind a single interface.
"""

from __future__ import annotations

import abc
import random
from typing import Callable, Dict, List, Optional

from ..topology.graph import Topology


class TopologyGenerator(abc.ABC):
    """Interface implemented by every descriptive generator."""

    #: Short identifier used in registries, reports, and benchmark tables.
    name: str = "generator"

    @abc.abstractmethod
    def generate(self, num_nodes: int, seed: Optional[int] = None) -> Topology:
        """Generate a topology with (approximately) ``num_nodes`` nodes."""


#: Global registry: generator name -> factory producing a default-configured instance.
_REGISTRY: Dict[str, Callable[[], TopologyGenerator]] = {}


def register_generator(name: str, factory: Callable[[], TopologyGenerator]) -> None:
    """Register a generator factory under ``name`` (overwrites silently)."""
    _REGISTRY[name] = factory


def available_generators() -> List[str]:
    """Names of all registered generators, sorted."""
    return sorted(_REGISTRY)


def make_generator(name: str) -> TopologyGenerator:
    """Instantiate a registered generator by name."""
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown generator {name!r}; available: {', '.join(available_generators())}"
        )
    return _REGISTRY[name]()


def ensure_connected(topology: Topology, rng: random.Random) -> Topology:
    """Connect a possibly disconnected topology by linking components.

    Random-graph baselines (Erdős–Rényi, Waxman, PLRG) can produce
    disconnected graphs; metrics such as average path length need a connected
    graph, so we follow the common practice of joining components with a
    minimal number of random links.  The patch links carry an attribute
    ``synthetic=True`` so analyses can exclude them if desired.
    """
    components = topology.connected_components()
    if len(components) <= 1:
        return topology
    anchor_component = max(components, key=len)
    anchor_nodes = sorted(anchor_component, key=repr)
    for component in components:
        if component is anchor_component:
            continue
        u = sorted(component, key=repr)[rng.randrange(len(component))]
        v = anchor_nodes[rng.randrange(len(anchor_nodes))]
        if not topology.has_link(u, v):
            topology.add_link(u, v, synthetic=True)
    return topology
