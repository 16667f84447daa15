"""The FKP heuristically-optimized-tradeoff growth model.

Section 3.1 of the paper highlights Fabrikant, Koutsoupias, and Papadimitriou
(ICALP 2002) as "the first explicit attempt to cast topology design, modeling,
and generation as a HOT problem": an incremental access-network model where
each newly arriving node ``i`` (placed uniformly at random in the unit square)
attaches to the existing node ``j`` minimizing

    alpha * d(i, j) + h(j)

with ``d`` the Euclidean distance (the "last mile" connection cost) and ``h``
a centrality measure of ``j`` (by default, the hop distance to the root —
a proxy for the transmission delay experienced once inside the network).

The theorem of Fabrikant et al. that the paper leans on:

* ``alpha < 1/sqrt(2)``                → the tree is a star (degree of the
  root grows linearly with n);
* ``alpha = Omega(sqrt(n))``           → the distance term dominates, the
  tree approaches a Euclidean MST / dynamic nearest-neighbour tree and the
  degree distribution has an exponential tail;
* intermediate ``alpha`` (``>= 4`` and ``o(sqrt(n))``) → the degree
  distribution has a power-law tail.

:class:`FKPModel` implements this growth process over an arbitrary region and
centrality function, and :func:`alpha_regime` classifies a given ``(alpha,
n)`` pair into the three regimes so the experiments (E1) can label their
sweeps the way the theory predicts.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..geography.points import euclidean
from ..geography.regions import Region, unit_square
from ..geography.spatial_index import SpatialGridIndex
from ..topology.graph import Topology
from ..topology.node import NodeRole


#: Centrality function signature: maps (model state, candidate node id) -> float.
CentralityFunction = Callable[["FKPState", int], float]


@dataclass
class FKPState:
    """Mutable growth state shared with centrality functions.

    Attributes:
        topology: The tree built so far (node ids are 0..t).
        locations: Node locations, indexed by node id.
        hop_to_root: Hop distance from each node to the root (node 0).
        subtree_size: Number of descendants (including self) of each node.
        parent: Explicit parent pointer of each non-root node.
    """

    topology: Topology
    locations: List[Tuple[float, float]]
    hop_to_root: Dict[int, int]
    subtree_size: Dict[int, int]
    parent: Dict[int, int] = field(default_factory=dict)


def hop_centrality(state: FKPState, node_id: int) -> float:
    """Hop distance to the root — the centrality used in the FKP paper."""
    return float(state.hop_to_root[node_id])


def euclidean_centrality(state: FKPState, node_id: int) -> float:
    """Euclidean distance from the candidate to the root node."""
    return euclidean(state.locations[node_id], state.locations[0])


def subtree_load_centrality(state: FKPState, node_id: int) -> float:
    """Negative subtree size: prefer attaching under heavily loaded hubs.

    This variant emphasises traffic aggregation rather than delay and is used
    as an ablation of the centrality definition.
    """
    return -float(state.subtree_size[node_id])


@dataclass(frozen=True)
class FKPParameters:
    """Parameters of an FKP growth run.

    Attributes:
        num_nodes: Total number of nodes to grow (including the root).
        alpha: Weight of the Euclidean distance term in the attachment
            objective (finite and non-negative).
        seed: Random seed for node placement.
    """

    num_nodes: int
    alpha: float
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {self.num_nodes}")
        if not 0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and non-negative, got {self.alpha}")


def alpha_regime(alpha: float, num_nodes: int) -> str:
    """Classify (alpha, n) into the FKP theorem's three regimes.

    Returns one of ``"star"``, ``"power-law"``, or ``"exponential"``.
    The boundaries follow the FKP theorem as quoted in Section 3.1: star for
    ``alpha < 1/sqrt(2)``, exponential-tail trees once alpha grows like
    ``sqrt(n)`` or faster, and power-law degrees in between.
    """
    if alpha < 1.0 / math.sqrt(2.0):
        return "star"
    if alpha >= math.sqrt(num_nodes):
        return "exponential"
    return "power-law"


#: Centrality functions whose per-node value never changes after attachment.
#: Only these are safe to cache inside the spatial index; any other function
#: (e.g. :func:`subtree_load_centrality`, whose values change as the tree
#: grows) falls back to the exhaustive scan.
_STATIC_CENTRALITIES = (hop_centrality, euclidean_centrality)


class _HopLevelIndex:
    """Exact ``argmin alpha*d(i,j) + hop(j)`` via one spatial grid per hop level.

    The hop centrality takes small integer values, so the argmin decomposes
    over hop levels: the winner at level ``h`` is the nearest level-``h`` node.
    Levels are queried in ascending order, each as a
    :class:`~repro.geography.spatial_index.SpatialGridIndex` ring query whose
    members all carry ``score = h`` (the objective is therefore computed with
    the exact same float expression as the full scan), passing the incumbent
    objective as the pruning cutoff; once ``h`` alone exceeds the incumbent,
    no deeper level can win and the loop stops.  Equal objectives keep the
    lowest node id, exactly like the seed's ascending-id scan.
    """

    def __init__(self, region: Region) -> None:
        self._region = region
        self._levels: List[SpatialGridIndex] = []

    def insert(self, node_id: int, point: Tuple[float, float], hop: int) -> None:
        if hop == len(self._levels):
            self._levels.append(SpatialGridIndex(self._region, expected_points=4))
        self._levels[hop].insert(node_id, point, float(hop))

    def argmin(self, query: Tuple[float, float], alpha: float) -> int:
        best_id: Optional[int] = None
        best_obj = math.inf
        for level, grid in enumerate(self._levels):
            if best_id is not None and level > best_obj:
                break
            candidate, objective = grid.argmin(query, alpha, stop_above=best_obj)
            if candidate is not None and (
                objective < best_obj
                or (objective == best_obj and candidate < best_id)
            ):
                best_id = candidate
                best_obj = objective
        assert best_id is not None
        return best_id


class FKPModel:
    """Incremental FKP tree growth.

    Each arrival solves ``argmin_j alpha*d(i,j) + h(j)``.  For the default
    hop centrality the argmin runs over :class:`_HopLevelIndex` (one spatial
    grid per hop level); for the Euclidean-to-root centrality it runs over a
    single :class:`~repro.geography.spatial_index.SpatialGridIndex`.  In both
    cases grid cells are skipped when ``alpha*d_min(cell) + min_h(cell)``
    already exceeds the best objective found, which prunes the seed's O(n)
    scan per arrival down to a handful of nearby cells while returning the
    *exact* same parent (ties still break toward the lowest id).  Custom
    centrality functions use the full scan, unchanged.

    Args:
        parameters: Growth parameters (size, alpha, seed).
        region: Region in which nodes are placed (default: unit square).
        centrality: Centrality function ``h(j)``; default is hop distance to
            the root, as in the original model.

    Example:
        >>> model = FKPModel(FKPParameters(num_nodes=100, alpha=4.0, seed=1))
        >>> topo = model.generate()
        >>> topo.is_tree()
        True
    """

    def __init__(
        self,
        parameters: FKPParameters,
        region: Optional[Region] = None,
        centrality: CentralityFunction = hop_centrality,
    ) -> None:
        self.parameters = parameters
        self.region = region or unit_square()
        self.centrality = centrality

    def generate(self) -> Topology:
        """Run the growth process and return the resulting tree topology.

        The returned topology has node ids ``0..n-1`` in arrival order, node 0
        is the root (role ``CORE``), every other node has role ``CUSTOMER``,
        and the metadata records the alpha value and predicted regime.
        """
        params = self.parameters
        rng = random.Random(params.seed)
        locations = self.region.sample_uniform(params.num_nodes, rng)

        topology = Topology(name=f"fkp-alpha{params.alpha:g}-n{params.num_nodes}")
        topology.metadata["alpha"] = params.alpha
        topology.metadata["model"] = "fkp"
        topology.metadata["regime"] = alpha_regime(params.alpha, params.num_nodes)

        topology.add_node(0, role=NodeRole.CORE, location=locations[0])
        state = FKPState(
            topology=topology,
            locations=locations,
            hop_to_root={0: 0},
            subtree_size={0: 1},
        )

        hop_index: Optional[_HopLevelIndex] = None
        flat_index: Optional[SpatialGridIndex] = None
        if self.centrality is hop_centrality:
            hop_index = _HopLevelIndex(self.region)
            hop_index.insert(0, locations[0], 0)
        elif self.centrality in _STATIC_CENTRALITIES:
            flat_index = SpatialGridIndex(self.region, expected_points=params.num_nodes)
            flat_index.insert(0, locations[0], self.centrality(state, 0))

        alpha = params.alpha
        for new_id in range(1, params.num_nodes):
            if hop_index is not None:
                parent = hop_index.argmin(locations[new_id], alpha)
            elif flat_index is not None:
                parent, _ = flat_index.argmin(locations[new_id], alpha)
            else:
                parent = self._choose_parent(state, new_id)
            topology.add_node(new_id, role=NodeRole.CUSTOMER, location=locations[new_id])
            topology.add_link(parent, new_id)
            state.hop_to_root[new_id] = state.hop_to_root[parent] + 1
            state.subtree_size[new_id] = 1
            state.parent[new_id] = parent
            self._propagate_subtree_increment(state, parent)
            if hop_index is not None:
                hop_index.insert(new_id, locations[new_id], state.hop_to_root[new_id])
            elif flat_index is not None:
                flat_index.insert(
                    new_id, locations[new_id], self.centrality(state, new_id)
                )
        return topology

    def _choose_parent(self, state: FKPState, new_id: int) -> int:
        """Pick the existing node minimizing alpha*d(i,j) + h(j) by full scan."""
        alpha = self.parameters.alpha
        new_location = state.locations[new_id]
        best_parent = 0
        best_objective = float("inf")
        for candidate in state.topology.node_ids():
            objective = alpha * euclidean(
                new_location, state.locations[candidate]
            ) + self.centrality(state, candidate)
            if objective < best_objective:
                best_objective = objective
                best_parent = candidate
        return best_parent

    def _propagate_subtree_increment(self, state: FKPState, start: int) -> None:
        """Increment subtree sizes on the path from ``start`` up to the root."""
        parent = state.parent
        current = start
        while True:
            state.subtree_size[current] += 1
            if current == 0:
                break
            current = parent[current]


def generate_fkp_tree(
    num_nodes: int,
    alpha: float,
    seed: Optional[int] = None,
    region: Optional[Region] = None,
    centrality: CentralityFunction = hop_centrality,
) -> Topology:
    """Convenience wrapper: grow one FKP tree with the given parameters."""
    model = FKPModel(
        FKPParameters(num_nodes=num_nodes, alpha=alpha, seed=seed),
        region=region,
        centrality=centrality,
    )
    return model.generate()
