"""Degree distribution statistics (histograms, CCDFs, summary moments).

Node degree distributions are the metric at the center of the topology-
generation debate the paper engages with: Faloutsos et al. observed power laws
in AS graphs, degree-based generators reproduce them by construction, and the
paper's preliminary result (Section 4.2) is that optimization-driven access
design yields *exponential* degree distributions.  The functions here compute
the raw distributions; :mod:`repro.metrics.fits` classifies their tails.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..topology.graph import Topology


@dataclass
class DegreeStatistics:
    """Summary statistics of a degree sequence.

    Attributes:
        num_nodes: Number of nodes.
        num_links: Number of links.
        mean: Mean degree.
        maximum: Maximum degree.
        minimum: Minimum degree.
        variance: Population variance of the degree sequence.
        coefficient_of_variation: Standard deviation divided by the mean
            (a scale-free tail pushes this well above 1).
    """

    num_nodes: int
    num_links: int
    mean: float
    maximum: int
    minimum: int
    variance: float
    coefficient_of_variation: float


def degree_sequence(topology: Topology) -> List[int]:
    """Degree of every node (insertion order)."""
    return topology.degree_sequence()


def degree_histogram(topology: Topology) -> Dict[int, int]:
    """Mapping from degree value to the number of nodes with that degree."""
    return dict(Counter(degree_sequence(topology)))


def degree_statistics(topology: Topology) -> DegreeStatistics:
    """Summary moments of the degree sequence."""
    degrees = degree_sequence(topology)
    if not degrees:
        raise ValueError("topology has no nodes")
    n = len(degrees)
    mean = sum(degrees) / n
    variance = sum((d - mean) ** 2 for d in degrees) / n
    std = variance**0.5
    return DegreeStatistics(
        num_nodes=n,
        num_links=topology.num_links,
        mean=mean,
        maximum=max(degrees),
        minimum=min(degrees),
        variance=variance,
        coefficient_of_variation=(std / mean) if mean > 0 else 0.0,
    )


def degree_ccdf(degrees: Sequence[int]) -> List[Tuple[int, float]]:
    """Complementary CDF of a degree sequence: P(degree >= k) per observed k.

    Returns ``(k, fraction)`` pairs sorted by increasing ``k``; this is the
    curve plotted on log-log (power law → straight line) or log-linear
    (exponential → straight line) axes in the experiments.
    """
    if not degrees:
        return []
    n = len(degrees)
    counts = Counter(degrees)
    ccdf = []
    remaining = n
    for k in sorted(counts):
        ccdf.append((k, remaining / n))
        remaining -= counts[k]
    return ccdf


def topology_degree_ccdf(topology: Topology) -> List[Tuple[int, float]]:
    """CCDF of a topology's degree sequence."""
    return degree_ccdf(degree_sequence(topology))


def leaf_fraction(topology: Topology) -> float:
    """Fraction of nodes with degree 1 (access leaves in a tree design)."""
    degrees = degree_sequence(topology)
    if not degrees:
        return 0.0
    return sum(1 for d in degrees if d == 1) / len(degrees)


def max_degree_share(topology: Topology) -> float:
    """Fraction of all link endpoints attached to the single busiest node.

    In a star this approaches 1/2; in a degree-balanced tree it approaches
    1/n.  Used to detect the FKP "star" regime cheaply.
    """
    degrees = degree_sequence(topology)
    total = sum(degrees)
    if total == 0:
        return 0.0
    return max(degrees) / total
