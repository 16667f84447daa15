#!/usr/bin/env python
"""Quickstart: generate optimization-driven topologies and inspect them.

Runs in a few seconds and touches every major piece of the public API:

1. grow an FKP tradeoff tree and classify its degree tail;
2. solve a buy-at-bulk access-design instance with the randomized incremental
   algorithm and compare it to the naive direct-star baseline;
3. design a (small) national ISP and print its WAN/MAN/LAN hierarchy.

Usage::

    python examples/quickstart.py
"""

from repro.core import (
    best_of_runs,
    generate_fkp_tree,
    generate_isp,
    random_instance,
    solve_direct_star,
)
from repro.metrics import classify_tail, degree_statistics, evaluate_topology
from repro.topology import summarize_hierarchy

SEED = 7


def fkp_demo() -> None:
    print("=== 1. FKP heuristically-optimized-tradeoff tree (paper §3.1) ===")
    for alpha, label in [(0.5, "star regime"), (4.0, "power-law regime"), (60.0, "exponential regime")]:
        tree = generate_fkp_tree(num_nodes=400, alpha=alpha, seed=SEED)
        stats = degree_statistics(tree)
        verdict = classify_tail(tree.degree_sequence()).verdict
        print(
            f"  alpha={alpha:>5.1f} ({label:18s}) "
            f"max_degree={stats.maximum:4d}  degree_cv={stats.coefficient_of_variation:5.2f}  "
            f"tail={verdict}"
        )
    print()


def buy_at_bulk_demo() -> None:
    print("=== 2. Buy-at-bulk access design (paper §4.1-4.2) ===")
    instance = random_instance(200, seed=SEED)
    meyerson = best_of_runs(instance, num_runs=3, seed=SEED)
    star = solve_direct_star(instance)
    verdict = classify_tail(meyerson.topology.degree_sequence()).verdict
    print(f"  customers: {len(instance.customers)}, total demand: {instance.total_demand:.1f}")
    print(f"  incremental (Meyerson-style) cost: {meyerson.total_cost():10.1f}  tree={meyerson.topology.is_tree()}  degree tail={verdict}")
    print(f"  direct-star baseline cost:         {star.total_cost():10.1f}")
    print(f"  savings from traffic aggregation:  {100 * (1 - meyerson.total_cost() / star.total_cost()):.1f}%")
    print()


def isp_demo() -> None:
    print("=== 3. Single-ISP design (paper §2.2) ===")
    design = generate_isp(num_cities=10, seed=SEED, customers_per_city_scale=3.0)
    topo = design.topology
    summary = summarize_hierarchy(topo)
    print(f"  PoP cities: {design.pop_count()} of {len(design.population.cities)} candidate cities")
    print(f"  nodes: {topo.num_nodes}, links: {topo.num_links}")
    print(f"  hierarchy levels: {dict(sorted(summary.level_counts.items()))}")
    print(f"  mean customer depth (hops to core): {summary.mean_customer_depth:.2f}")
    report = evaluate_topology(topo, sample_size=30)
    print(f"  mean degree: {report.get('mean_degree'):.2f}, max degree: {int(report.get('max_degree'))}")
    print(f"  total build-out cost: {topo.total_cost():.1f}")
    print()


def main() -> None:
    fkp_demo()
    buy_at_bulk_demo()
    isp_demo()
    print("Done. See examples/ for deeper, experiment-specific walkthroughs.")


if __name__ == "__main__":
    main()
