"""Tests for repro.topology.hierarchy."""

import math
import random
from collections import deque

import pytest

from repro.topology.graph import Topology
from repro.topology.hierarchy import (
    LEVEL_RANKS,
    compiled_level_ranks,
    level_of,
    summarize_hierarchy,
)
from repro.topology.node import NodeRole


def build_isp_like_tree() -> Topology:
    """core - backbone - distribution - customer chain plus an extra customer."""
    topo = Topology()
    topo.add_node("core", role=NodeRole.CORE)
    topo.add_node("bb", role=NodeRole.BACKBONE)
    topo.add_node("dist", role=NodeRole.DISTRIBUTION)
    topo.add_node("cust1", role=NodeRole.CUSTOMER, demand=1.0)
    topo.add_node("cust2", role=NodeRole.CUSTOMER, demand=2.0)
    topo.add_link("core", "bb")
    topo.add_link("bb", "dist")
    topo.add_link("dist", "cust1")
    topo.add_link("dist", "cust2")
    return topo


class TestLevelOf:
    def test_every_role_maps_to_a_level(self):
        for role in NodeRole:
            assert isinstance(level_of(role), str)

    def test_peering_maps_to_backbone(self):
        assert level_of(NodeRole.PEERING) == "backbone"


class TestSummarizeHierarchy:
    def test_level_counts(self):
        summary = summarize_hierarchy(build_isp_like_tree())
        assert summary.count("core") == 1
        assert summary.count("backbone") == 1
        assert summary.count("distribution") == 1
        assert summary.count("customer") == 2

    def test_inter_vs_intra_links(self):
        summary = summarize_hierarchy(build_isp_like_tree())
        assert summary.inter_level_links == 4
        assert summary.intra_level_links == 0

    def test_backbone_fraction(self):
        summary = summarize_hierarchy(build_isp_like_tree())
        assert summary.backbone_fraction == pytest.approx(2 / 5)

    def test_mean_customer_depth(self):
        summary = summarize_hierarchy(build_isp_like_tree())
        assert summary.mean_customer_depth == pytest.approx(3.0)

    def test_mean_customer_depth_nan_without_core(self):
        topo = Topology()
        topo.add_node("x", role=NodeRole.CUSTOMER)
        summary = summarize_hierarchy(topo)
        assert math.isnan(summary.mean_customer_depth)

    def test_level_link_matrix(self):
        summary = summarize_hierarchy(build_isp_like_tree())
        assert summary.level_link_matrix[("customer", "distribution")] == 2


def build_random_topology(num_nodes: int, seed: int, extra_links: int = 0) -> Topology:
    """Random tree plus chords with random roles (plus a detached island)."""
    rng = random.Random(seed)
    roles = list(NodeRole)
    topo = Topology()
    for i in range(num_nodes):
        topo.add_node(i, role=rng.choice(roles))
    for i in range(1, num_nodes):
        topo.add_link(i, rng.randrange(i))
    added = 0
    while added < extra_links:
        u, v = rng.randrange(num_nodes), rng.randrange(num_nodes)
        if u != v and not topo.has_link(u, v):
            topo.add_link(u, v)
            added += 1
    topo.add_node("island", role=NodeRole.CUSTOMER)
    return topo


def bfs_hops(topology: Topology, source) -> dict:
    """Plain per-source BFS hop distances over the object graph."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in topology.neighbors(u):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


class TestAgainstPerCoreReference:
    """The single multi-source-BFS rewrites are bit-identical to the
    per-core-minimum loops they replaced."""

    @pytest.mark.parametrize("seed", [2, 13, 47])
    def test_mean_customer_depth_matches_per_core_minimum(self, seed):
        topo = build_random_topology(70, seed, extra_links=15)
        summary = summarize_hierarchy(topo)
        cores = [n.node_id for n in topo.nodes() if n.role == NodeRole.CORE]
        customers = [n.node_id for n in topo.nodes() if n.role == NodeRole.CUSTOMER]
        per_core = [bfs_hops(topo, core) for core in cores]
        depths = []
        for customer in customers:
            best = min(
                (dist[customer] for dist in per_core if customer in dist),
                default=None,
            )
            if best is not None:
                depths.append(best)
        if not cores or not depths:
            assert math.isnan(summary.mean_customer_depth)
        else:
            assert summary.mean_customer_depth == sum(depths) / len(depths)

    @pytest.mark.parametrize("seed", [3, 31])
    def test_summary_link_classification_matches_object_graph_loop(self, seed):
        topo = build_random_topology(60, seed, extra_links=20)
        summary = summarize_hierarchy(topo)
        intra = inter = 0
        matrix = {}
        for link in topo.links():
            lu = level_of(topo.node(link.source).role)
            lv = level_of(topo.node(link.target).role)
            key = (lu, lv) if lu <= lv else (lv, lu)
            matrix[key] = matrix.get(key, 0) + 1
            if lu == lv:
                intra += 1
            else:
                inter += 1
        assert summary.intra_level_links == intra
        assert summary.inter_level_links == inter
        assert summary.level_link_matrix == matrix

    def test_compiled_level_ranks_align_with_roles(self):
        topo = build_random_topology(40, seed=9)
        graph = topo.compiled()
        ranks = compiled_level_ranks(graph)
        assert len(ranks) == graph.num_nodes
        for node, rank in zip(graph.nodes, ranks):
            assert rank == LEVEL_RANKS[level_of(node.role)]
