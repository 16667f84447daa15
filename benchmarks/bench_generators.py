"""Generation engine vs. seed growth loops, across all generators.

Times the rewritten generators (Fenwick dynamic weighted sampling,
spatial-grid attachment, grid-bucketed skip/rejection sampling) against the
seed implementations they replaced — inlined below verbatim for GLP, INET,
and PLRG; ``scan_fkp`` and ``naive_waxman`` from ``tests/oracles.py`` for
FKP and Waxman, both of which preserve the seed algorithm exactly.  Also
records the sampler/spatial operation counts from ``KERNEL_COUNTERS`` that
back the O(log n)-per-draw claim.

Run directly (``python benchmarks/bench_generators.py``) for the full sweep
(n in {2000, 10000, 50000}; legacy timed where feasible) with the acceptance
gates (FKP >= 10x and GLP >= 5x at n=10000, bit-identical outputs), or with
``--smoke`` for the small-n CI variant without gates.  Writes
``BENCH_generators.json`` at the repository root and a text table under
``benchmarks/results/``.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path
from typing import List, Optional

from repro.core.fkp import FKPModel, FKPParameters
from repro.experiments.reporting import emit_rows, timed, write_bench_json
from repro.generators import (
    BarabasiAlbertGenerator,
    GLPGenerator,
    InetGenerator,
    PLRGGenerator,
    WaxmanGenerator,
)
from repro.generators.plrg import power_law_degree_sequence
from repro.topology.compiled import KERNEL_COUNTERS
from repro.topology.graph import Topology

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import naive_waxman, scan_fkp  # noqa: E402

SEED = 7
FKP_ALPHA = 4.0  # power-law regime, the paper's headline case
WAXMAN_PARAMS = {"alpha_w": 0.05, "beta": 0.08, "connect": False}  # sparse at 10k+


# ----------------------------------------------------------------------
# Legacy growth loops (seed implementations)
# ----------------------------------------------------------------------
def legacy_glp_generate(generator: GLPGenerator, num_nodes: int, seed: int) -> Topology:
    """Seed GLP: rebuild candidates/weights and scan linearly per draw."""
    m = generator.links_per_step
    rng = random.Random(seed)
    topology = Topology(name=f"glp-n{num_nodes}")
    for node_id in range(m + 2):
        topology.add_node(node_id)
    for node_id in range(m + 1):
        topology.add_link(node_id, node_id + 1)

    def preferential_targets(count: int, exclude: set) -> List[int]:
        candidates = [n for n in topology.node_ids() if n not in exclude]
        weights = [
            max(1e-9, topology.degree(n) - generator.beta_glp) for n in candidates
        ]
        total = sum(weights)
        chosen: List[int] = []
        attempts = 0
        while len(chosen) < min(count, len(candidates)) and attempts < 100 * count:
            attempts += 1
            target_weight = rng.random() * total
            cumulative = 0.0
            for candidate, weight in zip(candidates, weights):
                cumulative += weight
                if target_weight <= cumulative:
                    if candidate not in chosen:
                        chosen.append(candidate)
                    break
        return chosen

    next_id = m + 2
    max_steps = 50 * num_nodes
    steps = 0
    while topology.num_nodes < num_nodes and steps < max_steps:
        steps += 1
        if rng.random() < generator.p_new:
            new_id = next_id
            next_id += 1
            topology.add_node(new_id)
            for target in preferential_targets(m, {new_id}):
                if not topology.has_link(new_id, target):
                    topology.add_link(new_id, target)
        else:
            for _ in range(m):
                pair = preferential_targets(2, set())
                if len(pair) == 2 and not topology.has_link(pair[0], pair[1]):
                    topology.add_link(pair[0], pair[1])
    return topology


def legacy_preferential_choice(candidates, remaining, rng) -> Optional[int]:
    """Seed INET choice: weight list rebuild plus linear cumulative scan."""
    if not candidates:
        return None
    weights = [max(remaining[c], 1) for c in candidates]
    total = sum(weights)
    target = rng.random() * total
    cumulative = 0.0
    for candidate, weight in zip(candidates, weights):
        cumulative += weight
        if target <= cumulative:
            return candidate
    return candidates[-1]


def legacy_inet_generate(generator: InetGenerator, num_nodes: int, seed: int) -> Topology:
    """Seed INET: per-draw candidate list rebuilds in all three phases."""
    rng = random.Random(seed)
    max_degree = max(generator.min_degree, int(generator.max_degree_fraction * num_nodes))
    degrees = power_law_degree_sequence(
        num_nodes, generator.exponent, generator.min_degree, max_degree, rng
    )
    degrees.sort(reverse=True)
    topology = Topology(name=f"inet-n{num_nodes}")
    for node_id in range(num_nodes):
        topology.add_node(node_id, target_degree=degrees[node_id])
    remaining = list(degrees)
    core_nodes = [n for n in range(num_nodes) if degrees[n] >= 2] or [0, 1]
    for position in range(1, len(core_nodes)):
        node = core_nodes[position]
        target = legacy_preferential_choice(core_nodes[:position], remaining, rng)
        if target is not None and not topology.has_link(node, target):
            topology.add_link(node, target)
            remaining[node] -= 1
            remaining[target] -= 1
    leaf_nodes = [n for n in range(num_nodes) if degrees[n] < 2 and n not in core_nodes]
    for node in leaf_nodes:
        target = legacy_preferential_choice(core_nodes, remaining, rng)
        if target is not None and not topology.has_link(node, target):
            topology.add_link(node, target)
            remaining[node] -= 1
            remaining[target] -= 1
    attempts = 0
    max_attempts = 20 * num_nodes
    while attempts < max_attempts:
        attempts += 1
        open_nodes = [n for n in range(num_nodes) if remaining[n] > 0]
        if len(open_nodes) < 2:
            break
        u = legacy_preferential_choice(open_nodes, remaining, rng)
        v = legacy_preferential_choice([n for n in open_nodes if n != u], remaining, rng)
        if u is None or v is None:
            break
        if not topology.has_link(u, v):
            topology.add_link(u, v)
            remaining[u] -= 1
            remaining[v] -= 1
    return topology


def legacy_power_law_degree_sequence(num_nodes, exponent, min_degree, max_degree, rng):
    """Seed PLRG degree sampler: linear scan over the cumulative table."""
    max_degree = max_degree or max(min_degree, num_nodes - 1)
    weights = [k ** (-exponent) for k in range(min_degree, max_degree + 1)]
    total = sum(weights)
    cumulative = []
    running = 0.0
    for weight in weights:
        running += weight / total
        cumulative.append(running)
    degrees = []
    for _ in range(num_nodes):
        u = rng.random()
        index = 0
        while index < len(cumulative) - 1 and cumulative[index] < u:
            index += 1
        degrees.append(min_degree + index)
    if sum(degrees) % 2 == 1:
        degrees[rng.randrange(num_nodes)] += 1
    return degrees


def legacy_plrg_generate(generator: PLRGGenerator, num_nodes: int, seed: int) -> Topology:
    """Seed PLRG: linear-scan degree sampler + stub matching."""
    from repro.generators.base import ensure_connected

    rng = random.Random(seed)
    degrees = legacy_power_law_degree_sequence(
        num_nodes, generator.exponent, generator.min_degree, generator.max_degree, rng
    )
    topology = Topology(name=f"plrg-n{num_nodes}")
    for node_id in range(num_nodes):
        topology.add_node(node_id, target_degree=degrees[node_id])
    stubs: List[int] = []
    for node_id, degree in enumerate(degrees):
        stubs.extend([node_id] * degree)
    rng.shuffle(stubs)
    for index in range(0, len(stubs) - 1, 2):
        u, v = stubs[index], stubs[index + 1]
        if u != v and not topology.has_link(u, v):
            topology.add_link(u, v)
    if generator.connect:
        ensure_connected(topology, rng)
    return topology


# ----------------------------------------------------------------------
# Benchmark body
# ----------------------------------------------------------------------
def edge_set(topo):
    return sorted(map(str, topo.link_keys()))


def bench_generator(name, new_run, legacy_run, sizes, legacy_sizes, check_identical):
    """Time one generator old vs. new; verify bit-identity where requested."""
    entry = {"per_n": {}}
    for n in sizes:
        KERNEL_COUNTERS.reset()
        t_new, topo_new = timed(lambda: new_run(n))
        counters = KERNEL_COUNTERS.snapshot()
        record = {
            "new_seconds": round(t_new, 4),
            "links": topo_new.num_links,
            "sampler_draws": counters["sampler_draws"],
            "sampler_updates": counters["sampler_updates"],
            "spatial_queries": counters["spatial_queries"],
            "spatial_candidates": counters["spatial_candidates"],
        }
        if legacy_run is not None and n in legacy_sizes:
            t_old, topo_old = timed(lambda: legacy_run(n))
            record["legacy_seconds"] = round(t_old, 4)
            record["speedup"] = round(t_old / t_new, 1)
            if check_identical:
                assert edge_set(topo_old) == edge_set(topo_new), (
                    f"{name} n={n}: new output diverges from the seed implementation"
                )
                record["bit_identical"] = True
        entry["per_n"][n] = record
    return entry


def run_benchmark(smoke: bool = False):
    if smoke:
        sizes = [300, 800]
        legacy_sizes = set(sizes)
        waxman_sizes, waxman_legacy = [300, 800], {300, 800}
        inet_legacy = set(sizes)
    else:
        sizes = [2000, 10000, 50000]
        legacy_sizes = {2000, 10000}
        waxman_sizes, waxman_legacy = [2000, 10000, 50000], {2000, 10000}
        inet_legacy = {2000}  # seed INET's phase-3 rebuild is intractable at 10k

    glp = GLPGenerator()
    inet = InetGenerator()
    plrg = PLRGGenerator()
    ba = BarabasiAlbertGenerator()
    waxman = WaxmanGenerator(**WAXMAN_PARAMS)

    results = {
        "mode": "smoke" if smoke else "full",
        "seed": SEED,
        "fkp_alpha": FKP_ALPHA,
        "generators": {},
    }

    results["generators"]["fkp"] = bench_generator(
        "fkp",
        lambda n: FKPModel(FKPParameters(num_nodes=n, alpha=FKP_ALPHA, seed=SEED)).generate(),
        lambda n: scan_fkp(FKPParameters(num_nodes=n, alpha=FKP_ALPHA, seed=SEED)),
        sizes,
        legacy_sizes,
        check_identical=True,
    )
    results["generators"]["glp"] = bench_generator(
        "glp",
        lambda n: glp.generate(n, seed=SEED),
        lambda n: legacy_glp_generate(glp, n, SEED),
        sizes,
        legacy_sizes,
        check_identical=True,
    )
    results["generators"]["inet"] = bench_generator(
        "inet",
        lambda n: inet.generate(n, seed=SEED),
        lambda n: legacy_inet_generate(inet, n, SEED),
        sizes,
        inet_legacy,
        check_identical=True,
    )
    results["generators"]["plrg"] = bench_generator(
        "plrg",
        lambda n: plrg.generate(n, seed=SEED),
        lambda n: legacy_plrg_generate(plrg, n, SEED),
        sizes,
        legacy_sizes,
        check_identical=True,
    )
    results["generators"]["barabasi-albert"] = bench_generator(
        "barabasi-albert",
        lambda n: ba.generate(n, seed=SEED),
        None,  # seed BA was already O(1) per draw; the engine formalizes it
        sizes,
        set(),
        check_identical=False,
    )
    results["generators"]["waxman"] = bench_generator(
        "waxman",
        lambda n: waxman.generate(n, seed=SEED),
        lambda n: naive_waxman(waxman, n, seed=SEED),
        waxman_sizes,
        waxman_legacy,
        check_identical=False,  # per-seed stream changed; gated statistically
    )

    rows = []
    for name, entry in results["generators"].items():
        for n, record in entry["per_n"].items():
            rows.append(
                {
                    "generator": name,
                    "n": n,
                    "legacy_s": record.get("legacy_seconds", "-"),
                    "new_s": record["new_seconds"],
                    "speedup": record.get("speedup", "-"),
                    "sampler_ops": record["sampler_draws"] + record["sampler_updates"],
                    "spatial_cands": record["spatial_candidates"],
                }
            )
    return results, rows


def check_acceptance(results):
    fkp = results["generators"]["fkp"]["per_n"][10000]
    glp = results["generators"]["glp"]["per_n"][10000]
    assert fkp["bit_identical"] and glp["bit_identical"]
    assert fkp["speedup"] >= 10.0, f"FKP speedup at n=10000 below 10x: {fkp}"
    assert glp["speedup"] >= 5.0, f"GLP speedup at n=10000 below 5x: {glp}"


def main(smoke: bool = False):
    results, rows = run_benchmark(smoke=smoke)
    if not smoke:
        check_acceptance(results)
    path = write_bench_json("generators", results)
    emit_rows(
        "E-generators",
        "generation engine (Fenwick sampling + spatial grids) vs seed growth loops",
        rows,
        slug="generators",
    )
    print(f"\nwrote {path}")


if __name__ == "__main__":
    main(smoke="--smoke" in sys.argv[1:])
