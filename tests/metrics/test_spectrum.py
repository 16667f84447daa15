"""Tests for repro.metrics.spectrum."""

import numpy as np
import pytest

from repro.metrics.spectrum import (
    adjacency_matrix,
    adjacency_spectrum,
    laplacian_matrix,
    laplacian_spectrum,
    spectral_summary,
)
from repro.topology.graph import Topology


def complete_graph(n: int) -> Topology:
    topo = Topology()
    for i in range(n):
        topo.add_node(i)
    for i in range(n):
        for j in range(i + 1, n):
            topo.add_link(i, j)
    return topo


class TestMatrices:
    def test_adjacency_symmetric(self, triangle_topology):
        matrix = adjacency_matrix(triangle_topology)
        assert np.allclose(matrix, matrix.T)
        assert matrix.sum() == pytest.approx(6.0)

    def test_laplacian_rows_sum_to_zero(self, star_topology):
        laplacian = laplacian_matrix(star_topology)
        assert np.allclose(laplacian.sum(axis=1), 0.0)

    def test_normalized_laplacian_diagonal_ones(self, triangle_topology):
        laplacian = laplacian_matrix(triangle_topology, normalized=True)
        assert np.allclose(np.diag(laplacian), 1.0)


class TestSpectra:
    def test_complete_graph_largest_eigenvalue(self):
        spectrum = adjacency_spectrum(complete_graph(5))
        assert spectrum[0] == pytest.approx(4.0)
        assert spectrum[-1] == pytest.approx(-1.0)

    def test_laplacian_smallest_eigenvalue_zero(self, star_topology):
        spectrum = laplacian_spectrum(star_topology, normalized=False)
        assert spectrum[0] == pytest.approx(0.0, abs=1e-9)

    def test_empty_topology(self):
        assert adjacency_spectrum(Topology()) == []
        assert laplacian_spectrum(Topology()) == []

    def test_algebraic_connectivity_zero_for_disconnected(self):
        topo = Topology()
        for i in range(4):
            topo.add_node(i)
        topo.add_link(0, 1)
        topo.add_link(2, 3)
        assert laplacian_spectrum(topo, normalized=False)[1] == pytest.approx(0.0, abs=1e-9)
        assert spectral_summary(topo)["algebraic_connectivity"] == pytest.approx(0.0, abs=1e-9)

    def test_algebraic_connectivity_positive_for_connected(self, triangle_topology):
        assert spectral_summary(triangle_topology)["algebraic_connectivity"] > 0.1

    def test_spectral_gap_nonnegative(self, star_topology):
        assert spectral_summary(star_topology)["spectral_gap"] >= 0.0

    def test_summary_keys(self, triangle_topology):
        summary = spectral_summary(triangle_topology)
        assert set(summary) == {
            "largest_adjacency_eigenvalue",
            "spectral_gap",
            "algebraic_connectivity",
            "largest_laplacian_eigenvalue",
        }
