"""E10 — move-based simulated annealing vs copy-based full re-evaluation.

The incremental objective engine (``repro.optimization.incremental``) claims
O(Δ) per candidate where the copy-based search pays O(copy + full
evaluation).  This benchmark:

1. runs the E10 engine suite (score/edge/per-move equality gates plus the
   ISP design-refinement point; records land in ``RESULTS/E10/``);
2. times both searches on the same cable-plan annealing instance — n=2000
   full, n=300 smoke — and gates the speedup (>=10x full, >=3x smoke) with
   score-identical best designs per seed;
3. snapshots ``KERNEL_COUNTERS`` around the move-based run and asserts
   ``objective_delta_evals`` dwarfs ``objective_full_evals``.

Writes ``BENCH_E10.json`` and a text table under ``benchmarks/results/``.
"""

from __future__ import annotations

import random
import sys

from repro.experiments.reporting import (
    emit_rows,
    experiment_bench_payload,
    print_experiment,
    timed,
    write_bench_json,
)
from repro.experiments.runner import run_experiment
from repro.experiments.suites.e10_local_search import (
    SCORE_RTOL,
    build_anneal_instance,
    copy_based_annealing,
    draw_move,
    edge_signature,
    make_objective,
)
from repro.optimization.incremental import IncrementalState
from repro.optimization.local_search import simulated_annealing_moves
from repro.topology.compiled import KERNEL_COUNTERS

NUM_NODES = 2000
SMOKE_NUM_NODES = 300
ITERATIONS = 1500
SMOKE_ITERATIONS = 500
SEED = 47
SPEEDUP_FLOOR = 10.0
SMOKE_SPEEDUP_FLOOR = 3.0


def time_pair(size: int, objective_name: str, iterations: int, seed: int):
    """Time the copy-based and move-based searches on one instance."""
    base_topology, base_context = build_anneal_instance(size, seed)
    objective = make_objective(objective_name)
    t_base, baseline = timed(
        lambda: copy_based_annealing(
            base_topology, objective, base_context, iterations, random.Random(seed)
        )
    )

    move_topology, move_context = build_anneal_instance(size, seed)
    KERNEL_COUNTERS.reset()
    t_move, incremental = timed(
        lambda: simulated_annealing_moves(
            IncrementalState(move_topology, make_objective(objective_name)),
            lambda st, prng: draw_move(st.topology, prng, move_context),
            max_iterations=iterations,
            rng=random.Random(seed),
        )
    )
    counters = KERNEL_COUNTERS.snapshot()

    scale = max(1.0, abs(baseline.best_cost))
    assert abs(baseline.best_cost - incremental.best_cost) <= SCORE_RTOL * scale, (
        baseline.best_cost,
        incremental.best_cost,
    )
    assert edge_signature(baseline.best_solution) == edge_signature(
        incremental.best_solution
    ), "best designs diverged between the copy-based and move-based searches"
    assert baseline.accepted_moves == incremental.accepted_moves
    return {
        "size": size,
        "objective": objective_name,
        "iterations": iterations,
        "copy_based_seconds": t_base,
        "move_based_seconds": t_move,
        "speedup": t_base / t_move,
        "best_score": baseline.best_cost,
        "accepted_moves": baseline.accepted_moves,
        "objective_delta_evals": counters["objective_delta_evals"],
        "objective_full_evals": counters["objective_full_evals"],
    }


def run_benchmark(smoke: bool = False):
    size = SMOKE_NUM_NODES if smoke else NUM_NODES
    iterations = SMOKE_ITERATIONS if smoke else ITERATIONS
    results = {"mode": "smoke" if smoke else "full", "timings": {}}
    rows = []
    for objective_name in ("cost", "profit"):
        timing = time_pair(size, objective_name, iterations, SEED)
        results["timings"][objective_name] = timing
        rows.append(
            {
                "search": f"simulated annealing ({objective_name}, n={size})",
                "copy_s": round(timing["copy_based_seconds"], 3),
                "move_s": round(timing["move_based_seconds"], 3),
                "speedup": round(timing["speedup"], 1),
                "delta_evals": timing["objective_delta_evals"],
                "full_evals": timing["objective_full_evals"],
            }
        )
    return results, rows


def check_acceptance(results, smoke: bool = False):
    floor = SMOKE_SPEEDUP_FLOOR if smoke else SPEEDUP_FLOOR
    for objective_name, timing in results["timings"].items():
        assert timing["speedup"] >= floor, (
            f"{objective_name}: move-based annealing speedup "
            f"{timing['speedup']:.1f}x under the {floor}x floor"
        )
        # The counters must show the O(Δ) story: every candidate was a delta
        # evaluation, with one full evaluation for the initial state build.
        assert timing["objective_delta_evals"] >= 50 * max(
            1, timing["objective_full_evals"]
        ), timing
        assert timing["objective_full_evals"] <= 2, timing


def main(smoke: bool = False, jobs: int = 1, force: bool = False):
    engine_result = run_experiment("E10", smoke=smoke, jobs=jobs, force=force)
    print_experiment(engine_result)
    results, rows = run_benchmark(smoke=smoke)
    check_acceptance(results, smoke=smoke)
    results["experiment"] = experiment_bench_payload(engine_result)
    path = write_bench_json("E10", results)
    emit_rows(
        "E10",
        "move-based vs copy-based simulated annealing",
        rows,
        slug="local_search",
    )
    print(f"\nwrote {path}")


def test_local_search_engine():
    """Equality, counter, and relaxed speedup gates at the CI (smoke) size."""
    main(smoke=True)


if __name__ == "__main__":
    argv = sys.argv[1:]
    jobs = 1
    if "--jobs" in argv:
        jobs = int(argv[argv.index("--jobs") + 1])
    main(smoke="--smoke" in argv, jobs=jobs, force="--force" in argv)
