"""Seed-stability regression tests: the bit-identical-output contract.

The generation-engine rewrite (Fenwick sampling, spatial-grid attachment)
promises that BA/GLP/PLRG/INET/FKP produce **bit-identical** topologies per
seed.  These hashes were computed from the pre-rewrite pure-scan generators
and pin that contract: any change to draw order, weight semantics, or
tie-breaking shows up as a hash mismatch here.

Waxman and Erdős–Rényi intentionally changed their per-seed random streams
(grid-bucketed / skip sampling) and are gated statistically instead — see
``TestWaxmanStatistics`` in ``test_generators.py``.
"""

import hashlib

import pytest

from repro.core.fkp import (
    FKPModel,
    FKPParameters,
    generate_fkp_tree,
    subtree_load_centrality,
)
from repro.generators import (
    BarabasiAlbertGenerator,
    GLPGenerator,
    InetGenerator,
    PLRGGenerator,
)

from oracles import scan_fkp


def edge_hash(topo) -> str:
    """Order-independent hash of the topology's edge set (plus counts)."""
    lines = sorted(f"{u}|{v}" for (u, v) in topo.link_keys())
    payload = f"n={topo.num_nodes};m={topo.num_links};" + ";".join(lines)
    return hashlib.sha256(payload.encode()).hexdigest()


#: (case id, topology factory, hash of the seed implementation's output).
PINNED = [
    (
        "ba-m2-s1-n200",
        lambda: BarabasiAlbertGenerator().generate(200, seed=1),
        "77789322d731bcdaf1d484dc677236519349cffbeef99d158889158dd2bf9c7b",
    ),
    (
        "ba-m3-s7-n500",
        lambda: BarabasiAlbertGenerator(links_per_node=3).generate(500, seed=7),
        "400d9b24dc14dce4e28aab0d2777f4890e7726f5ca51df029b27c13ef74d2c8e",
    ),
    (
        "glp-s3-n200",
        lambda: GLPGenerator().generate(200, seed=3),
        "8002f23adb916c6057160dacf5078cd0fac7011e4194ee1011c3f2fa7fa2d9ed",
    ),
    (
        "glp-m2-s11-n400",
        lambda: GLPGenerator(links_per_step=2).generate(400, seed=11),
        "1b88af4b361d82acfb4b524f9fa5eb1805ca7743f89db797b69d76ee94f3d06f",
    ),
    (
        "plrg-s5-n300",
        lambda: PLRGGenerator().generate(300, seed=5),
        "83690e2fe2ef6bf4eb76127b845aa460ba1b34c5faedff17ee3320985f1b03b0",
    ),
    (
        "plrg-e2.1-s9-n800",
        lambda: PLRGGenerator(exponent=2.1).generate(800, seed=9),
        "851184af3b2f2f8fa237aea29fe80e3bc12395992bd93eb58e2d16c12ea8f49e",
    ),
    (
        "inet-s2-n300",
        lambda: InetGenerator().generate(300, seed=2),
        "a3294ac81289c877a9c5ccbf5cd6cbaf6f9c8996310dad4e3370bda1031ce38a",
    ),
    (
        "inet-s13-n600",
        lambda: InetGenerator().generate(600, seed=13),
        "79579d0cdbbb855d24b902b8e24e0d8b5776a74af1560136bb82750d7df49a96",
    ),
    (
        "fkp-a0.1-s1-n300",
        lambda: generate_fkp_tree(300, 0.1, seed=1),
        "63f657cf31982c3a838584f287be014886886ac6d651a68c557a714e2ada3a27",
    ),
    (
        "fkp-a4-s4-n400",
        lambda: generate_fkp_tree(400, 4.0, seed=4),
        "3804a5632f86155f1ed5ad300167279f38a269d92b695ff9b49c82bfb85dc8b0",
    ),
    (
        "fkp-a25-s8-n400",
        lambda: generate_fkp_tree(400, 25.0, seed=8),
        "ff8237337e3b077a4d908a64f5a2118425192d424893a220e55df5edb0b23785",
    ),
    (
        "fkp-scan-a0.1-s1-n300",
        lambda: scan_fkp(FKPParameters(num_nodes=300, alpha=0.1, seed=1)),
        "63f657cf31982c3a838584f287be014886886ac6d651a68c557a714e2ada3a27",
    ),
    (
        "fkp-scan-a4-s4-n400",
        lambda: scan_fkp(FKPParameters(num_nodes=400, alpha=4.0, seed=4)),
        "3804a5632f86155f1ed5ad300167279f38a269d92b695ff9b49c82bfb85dc8b0",
    ),
    (
        "fkp-scan-a25-s8-n400",
        lambda: scan_fkp(FKPParameters(num_nodes=400, alpha=25.0, seed=8)),
        "ff8237337e3b077a4d908a64f5a2118425192d424893a220e55df5edb0b23785",
    ),
    (
        "fkp-subtree-a4-s6-n250",
        lambda: FKPModel(
            FKPParameters(num_nodes=250, alpha=4.0, seed=6),
            centrality=subtree_load_centrality,
        ).generate(),
        "88bb98f6ce884aa2b84ed7bc52221442b64314147cd9b5256b2ae68af5f28dd3",
    ),
]


@pytest.mark.parametrize("case_id,factory,expected", PINNED, ids=[c[0] for c in PINNED])
def test_seeded_output_matches_seed_implementation(case_id, factory, expected):
    assert edge_hash(factory()) == expected


def test_fkp_spatial_index_matches_full_scan():
    """The pruned spatial argmin and the exhaustive scan agree exactly."""
    for alpha in (0.1, 1.0, 4.0, 30.0):
        for seed in (0, 3):
            parameters = FKPParameters(num_nodes=120, alpha=alpha, seed=seed)
            fast = FKPModel(parameters).generate()
            assert edge_hash(fast) == edge_hash(scan_fkp(parameters))
