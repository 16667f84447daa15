"""Spectral analysis of topologies (adjacency and Laplacian eigenvalues).

Vukadinovic et al. [31 in the paper] proposed the normalized Laplacian
spectrum as a topology fingerprint that separates graph families which agree
on degree statistics.  We provide adjacency/Laplacian spectra (via numpy) and
the scalar summaries (spectral gap, algebraic connectivity) used in the E5
comparison tables.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..topology.graph import Topology


def _index_map(topology: Topology) -> Dict[object, int]:
    return {node_id: index for index, node_id in enumerate(topology.node_ids())}


def adjacency_matrix(topology: Topology) -> np.ndarray:
    """Dense 0/1 adjacency matrix in node-insertion order."""
    index = _index_map(topology)
    n = topology.num_nodes
    matrix = np.zeros((n, n))
    for link in topology.links():
        i, j = index[link.source], index[link.target]
        matrix[i, j] = 1.0
        matrix[j, i] = 1.0
    return matrix


def laplacian_matrix(topology: Topology, normalized: bool = False) -> np.ndarray:
    """(Normalized) Laplacian matrix ``L = D - A`` (or ``I - D^-1/2 A D^-1/2``)."""
    adjacency = adjacency_matrix(topology)
    degrees = adjacency.sum(axis=1)
    laplacian = np.diag(degrees) - adjacency
    if not normalized:
        return laplacian
    with np.errstate(divide="ignore"):
        inv_sqrt = np.where(degrees > 0, 1.0 / np.sqrt(degrees), 0.0)
    scaling = np.diag(inv_sqrt)
    return np.eye(len(degrees)) - scaling @ adjacency @ scaling


def adjacency_spectrum(topology: Topology) -> List[float]:
    """Eigenvalues of the adjacency matrix, sorted in decreasing order."""
    if topology.num_nodes == 0:
        return []
    eigenvalues = np.linalg.eigvalsh(adjacency_matrix(topology))
    return sorted((float(v) for v in eigenvalues), reverse=True)


def laplacian_spectrum(topology: Topology, normalized: bool = True) -> List[float]:
    """Eigenvalues of the (normalized) Laplacian, sorted in increasing order."""
    if topology.num_nodes == 0:
        return []
    eigenvalues = np.linalg.eigvalsh(laplacian_matrix(topology, normalized=normalized))
    return sorted(float(v) for v in eigenvalues)


def spectral_summary(topology: Topology) -> Dict[str, float]:
    """Scalar spectral fingerprint used in the generator-comparison tables."""
    adjacency = adjacency_spectrum(topology)
    laplacian = laplacian_spectrum(topology, normalized=True)
    return {
        "largest_adjacency_eigenvalue": adjacency[0] if adjacency else 0.0,
        "spectral_gap": (adjacency[0] - adjacency[1]) if len(adjacency) > 1 else 0.0,
        "algebraic_connectivity": laplacian[1] if len(laplacian) > 1 else 0.0,
        "largest_laplacian_eigenvalue": laplacian[-1] if laplacian else 0.0,
    }
