"""Tests for the descriptive baseline generators (repro.generators)."""

import math
import random

import pytest

from repro.generators import (
    BarabasiAlbertGenerator,
    ErdosRenyiGenerator,
    GLPGenerator,
    InetGenerator,
    PLRGGenerator,
    TransitStubGenerator,
    WaxmanGenerator,
    available_generators,
    ensure_connected,
    make_generator,
)
from repro.generators.plrg import power_law_degree_sequence
from repro.metrics.fits import classify_tail
from repro.topology.graph import Topology, TopologyError

from oracles import naive_waxman

ALL_GENERATOR_NAMES = [
    "erdos-renyi",
    "waxman",
    "barabasi-albert",
    "glp",
    "plrg",
    "inet",
    "transit-stub",
]


class TestRegistry:
    def test_all_generators_registered(self):
        assert set(ALL_GENERATOR_NAMES) <= set(available_generators())

    def test_make_generator(self):
        generator = make_generator("barabasi-albert")
        assert isinstance(generator, BarabasiAlbertGenerator)

    def test_unknown_generator_raises(self):
        with pytest.raises(KeyError):
            make_generator("magic")


class TestCommonBehaviour:
    @pytest.mark.parametrize("name", ALL_GENERATOR_NAMES)
    def test_node_count_and_connectivity(self, name):
        topo = make_generator(name).generate(120, seed=1)
        assert topo.num_nodes == 120
        assert topo.is_connected()

    @pytest.mark.parametrize("name", ALL_GENERATOR_NAMES)
    def test_deterministic_with_seed(self, name):
        generator = make_generator(name)
        a = generator.generate(80, seed=5)
        b = generator.generate(80, seed=5)
        assert sorted(map(str, a.link_keys())) == sorted(map(str, b.link_keys()))

    @pytest.mark.parametrize("name", ALL_GENERATOR_NAMES)
    def test_metadata_records_model(self, name):
        topo = make_generator(name).generate(60, seed=2)
        assert topo.metadata["model"] == name


class TestErdosRenyi:
    def test_mean_degree_close_to_target(self):
        topo = ErdosRenyiGenerator(target_mean_degree=6.0, connect=False).generate(400, seed=3)
        mean_degree = 2 * topo.num_links / topo.num_nodes
        assert 4.5 < mean_degree < 7.5

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            ErdosRenyiGenerator(edge_probability=1.5)

    def test_explicit_probability_used(self):
        topo = ErdosRenyiGenerator(edge_probability=0.0, connect=False).generate(20, seed=1)
        assert topo.num_links == 0


class TestWaxman:
    def test_locality_bias(self):
        topo = WaxmanGenerator(alpha_w=0.05, beta=0.8, connect=False).generate(200, seed=4)
        diag = 2 ** 0.5
        lengths = [link.length for link in topo.links()]
        assert lengths
        assert sum(lengths) / len(lengths) < 0.4 * diag

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            WaxmanGenerator(alpha_w=0.0)
        with pytest.raises(ValueError):
            WaxmanGenerator(beta=0.0)
        with pytest.raises(ValueError, match="alpha_w"):
            WaxmanGenerator(alpha_w=math.nan)
        with pytest.raises(ValueError, match="beta"):
            WaxmanGenerator(beta=math.nan)

    def test_infinite_alpha_w_removes_distance_decay(self):
        topo = WaxmanGenerator(alpha_w=math.inf, beta=1.0, connect=False).generate(12, seed=1)
        assert topo.num_links == 12 * 11 // 2

    def test_nodes_have_locations(self):
        topo = WaxmanGenerator().generate(50, seed=5)
        assert all(node.location is not None for node in topo.nodes())


class TestWaxmanStatistics:
    """Statistical gates for the grid-bucketed Waxman sampler.

    The grid method draws the exact Waxman edge distribution but with a
    different random stream than the seed's per-pair loop, so equivalence is
    gated statistically against that loop (``naive_waxman`` in
    ``tests/oracles.py``).
    """

    NUM_NODES = 250

    def _expected_links(self, topo, alpha_w, beta):
        """Analytic E[links] and Var[links] given the realized locations."""
        locations = [node.location for node in topo.nodes()]
        diagonal = 2**0.5
        expected = variance = 0.0
        for i in range(len(locations)):
            for j in range(i + 1, len(locations)):
                d = math.hypot(
                    locations[i][0] - locations[j][0],
                    locations[i][1] - locations[j][1],
                )
                p = beta * math.exp(-d / (alpha_w * diagonal))
                expected += p
                variance += p * (1 - p)
        return expected, variance

    def test_link_count_within_three_sigma(self):
        alpha_w, beta = 0.2, 0.4
        for seed in (1, 2, 3):
            topo = WaxmanGenerator(
                alpha_w=alpha_w, beta=beta, connect=False
            ).generate(self.NUM_NODES, seed=seed)
            expected, variance = self._expected_links(topo, alpha_w, beta)
            assert abs(topo.num_links - expected) <= 3.0 * math.sqrt(variance)

    def test_degree_distribution_ks_vs_naive(self):
        grid_degrees, naive_degrees = [], []
        generator = WaxmanGenerator(connect=False)
        for seed in (10, 11, 12):
            grid_degrees.extend(generator.generate(self.NUM_NODES, seed=seed).degree_sequence())
            naive_degrees.extend(
                naive_waxman(generator, self.NUM_NODES, seed=seed + 100).degree_sequence()
            )
        statistic = two_sample_ks_statistic(grid_degrees, naive_degrees)
        n1, n2 = len(grid_degrees), len(naive_degrees)
        critical = 1.63 * math.sqrt((n1 + n2) / (n1 * n2))  # alpha = 0.01
        assert statistic <= critical

    def test_naive_method_unchanged_from_seed(self):
        """The reference loop still produces the seed's per-seed stream."""
        topo = naive_waxman(WaxmanGenerator(connect=False), 60, seed=3)
        rng = random.Random(3)
        locations = [(rng.random(), rng.random()) for _ in range(60)]
        expected = []
        diagonal = 2**0.5
        for u in range(60):
            for v in range(u + 1, 60):
                d = math.hypot(
                    locations[u][0] - locations[v][0],
                    locations[u][1] - locations[v][1],
                )
                if rng.random() < 0.4 * math.exp(-d / (0.2 * diagonal)):
                    expected.append((u, v))
        got = sorted(tuple(sorted(key)) for key in topo.link_keys())
        assert got == sorted(expected)


def two_sample_ks_statistic(a, b):
    """Two-sample Kolmogorov–Smirnov statistic (no scipy dependency).

    ECDFs are compared only at distinct values — both pointers advance past
    every element equal to the current value before the difference is taken —
    so heavily tied samples (integer degrees) are handled correctly.
    """
    a, b = sorted(a), sorted(b)
    ia = ib = 0
    statistic = 0.0
    while ia < len(a) or ib < len(b):
        if ib >= len(b) or (ia < len(a) and a[ia] <= b[ib]):
            value = a[ia]
        else:
            value = b[ib]
        while ia < len(a) and a[ia] == value:
            ia += 1
        while ib < len(b) and b[ib] == value:
            ib += 1
        statistic = max(statistic, abs(ia / len(a) - ib / len(b)))
    return statistic


def test_ks_statistic_handles_ties():
    assert two_sample_ks_statistic([5, 5, 5, 5], [5, 5, 5, 5]) == 0.0
    assert two_sample_ks_statistic([1, 1, 2, 2], [1, 1, 2, 2]) == 0.0
    assert two_sample_ks_statistic([0, 0, 0], [1, 1, 1]) == 1.0
    assert abs(two_sample_ks_statistic([1, 2, 3, 4], [1, 2, 3, 8]) - 0.25) < 1e-12


class TestBarabasiAlbert:
    def test_power_law_tail(self):
        topo = BarabasiAlbertGenerator(links_per_node=2).generate(800, seed=6)
        verdict = classify_tail(topo.degree_sequence()).verdict
        assert verdict == "power-law"

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            BarabasiAlbertGenerator(links_per_node=3).generate(3, seed=1)

    def test_link_count(self):
        m = 2
        topo = BarabasiAlbertGenerator(links_per_node=m).generate(100, seed=7)
        seed_links = (m + 1) * m // 2
        assert topo.num_links == seed_links + m * (100 - (m + 1))

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            BarabasiAlbertGenerator(links_per_node=0)


class TestGLP:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            GLPGenerator(p_new=0.0)
        with pytest.raises(ValueError):
            GLPGenerator(beta_glp=1.5)

    def test_heavy_tailed_degrees(self):
        topo = GLPGenerator().generate(500, seed=8)
        degrees = topo.degree_sequence()
        assert max(degrees) > 10 * (sum(degrees) / len(degrees))

    def test_undershoot_raises_instead_of_silent_small_graph(self):
        # p_new so small that the step cap is reached long before the target
        # node count; the seed implementation silently returned a 3-node graph.
        generator = GLPGenerator(p_new=1e-9)
        with pytest.raises(TopologyError, match="undershoot"):
            generator.generate(20, seed=1)


class TestPLRG:
    def test_degree_sequence_sampler(self):
        rng = random.Random(9)
        degrees = power_law_degree_sequence(500, 2.2, 1, 100, rng)
        assert len(degrees) == 500
        assert sum(degrees) % 2 == 0
        assert min(degrees) >= 1
        assert max(degrees) <= 100

    def test_invalid_sampler_arguments(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            power_law_degree_sequence(10, 1.0, 1, 10, rng)
        with pytest.raises(ValueError):
            power_law_degree_sequence(10, 2.0, 0, 10, rng)
        with pytest.raises(ValueError):
            power_law_degree_sequence(10, 2.0, 5, 2, rng)

    def test_power_law_tail(self):
        topo = PLRGGenerator(exponent=2.1).generate(800, seed=10)
        verdict = classify_tail(topo.degree_sequence()).verdict
        assert verdict in ("power-law", "inconclusive")


class TestInet:
    def test_minimum_size(self):
        with pytest.raises(ValueError):
            InetGenerator().generate(2, seed=1)

    def test_high_degree_nodes_exist(self):
        topo = InetGenerator().generate(400, seed=11)
        assert max(topo.degree_sequence()) >= 10


class TestTransitStub:
    def test_domains_annotated(self):
        topo = TransitStubGenerator(num_stub_domains=4).generate(100, seed=12)
        domains = {node.attributes.get("domain") for node in topo.nodes()}
        assert "transit" in domains
        assert any(d and d.startswith("stub") for d in domains)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            TransitStubGenerator(num_stub_domains=8).generate(5, seed=1)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TransitStubGenerator(transit_fraction=0.0)
        with pytest.raises(ValueError):
            TransitStubGenerator(num_stub_domains=0)


class TestEnsembleAndConnectivity:
    def test_ensure_connected_joins_components(self):
        topo = Topology()
        for i in range(6):
            topo.add_node(i)
        topo.add_link(0, 1)
        topo.add_link(2, 3)
        topo.add_link(4, 5)
        ensure_connected(topo, random.Random(1))
        assert topo.is_connected()
        synthetic = [link for link in topo.links() if link.attributes.get("synthetic")]
        assert len(synthetic) == 2
