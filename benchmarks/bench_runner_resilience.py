"""Overhead and recovery benchmarks for the fault-tolerant sweep runner.

Measures what the work-queue engine (``repro.experiments.runner``) costs and
buys relative to the barrier ``pool.map`` runner it replaced, on a synthetic
"RSL" suite of sha256-chain tasks (~40-80 ms each — long enough to dominate
dispatch overhead, deterministic by construction):

* **fault-free overhead** — best-of-N wall clock of ``run_tasks`` (per-task
  dispatch + per-task persistence + liveness polling) vs. the barrier
  reference (one ``pool.map``, persist at the end), both at ``--jobs``
  workers on a cold store.  Gate: <= 5% overhead full, relaxed in smoke
  mode where per-task cost is too small to amortize CI noise.
* **resume after a crash** — populate the store, delete ~12.5% of the
  records (a sweep killed near the end), re-run with ``resume=True``.
  Gate: the resumed sweep costs <= 25% of the cold run full (<= 50% smoke).
* **chaos convergence** — a kill+raise fault schedule against parallel
  workers (``tests/chaos.py`` wraps the suite's ``run_point``) must still
  produce a manifest byte-identical to a clean ``--jobs 1`` run.

Run directly (``python benchmarks/bench_runner_resilience.py``) for the full
24-task sweep, or with ``--smoke`` for the 8-task CI variant.  Writes
``BENCH_runner_resilience.json`` and a text table under
``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import multiprocessing
import os
import sys
import tempfile
import time
from pathlib import Path

from repro.experiments import (
    ExperimentSuite,
    ResultStore,
    register_suite,
    run_experiment,
    run_tasks,
)
from repro.experiments.reporting import emit_rows, write_bench_json
from repro.experiments.runner import execute_task
from repro.experiments.task import expand_grid

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from chaos import Fault, faulted  # noqa: E402

SUITE_ID = "RSL"
BASE_SEED = 23
SPIN = 100_000  # sha256-chain length per task; ~50-60 ms on CI hardware
FULL_TASKS = 24
SMOKE_TASKS = 8
HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def _expand(smoke):
    count = SMOKE_TASKS if smoke else FULL_TASKS
    return expand_grid(SUITE_ID, BASE_SEED, {"i": list(range(count))})


def _run_point(point, seed):
    block = hashlib.sha256(f"{point['i']}:{seed}".encode()).digest()
    for _ in range(SPIN):
        block = hashlib.sha256(block).digest()
    return {"i": point["i"], "chain": block.hex()}


def _aggregate(records):
    return {"main": [{"i": r.payload["i"], "chain": r.payload["chain"][:16]} for r in records]}


register_suite(
    ExperimentSuite(
        scenario_id=SUITE_ID,
        title="fault-tolerant runner synthetic workload",
        expand=_expand,
        run_point=_run_point,
        aggregate=_aggregate,
        parameters={"seed": BASE_SEED},
    )
)


def _barrier_reference(tasks, jobs: int) -> float:
    """The pre-PR runner semantics: one ``pool.map`` barrier, persist at the end."""
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(Path(tmp))
        start = time.perf_counter()
        if jobs > 1 and HAS_FORK:
            with multiprocessing.get_context("fork").Pool(processes=jobs) as pool:
                records = pool.map(execute_task, tasks)
        else:
            records = [execute_task(task) for task in tasks]
        for record in records:
            store.store(record)
        return time.perf_counter() - start


def _work_queue(tasks, jobs: int) -> float:
    """One cold run through the fault-tolerant work queue."""
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(Path(tmp))
        start = time.perf_counter()
        run_tasks(tasks, jobs=jobs, store=store, retry_backoff=0.01)
        return time.perf_counter() - start


def run_benchmark(smoke: bool = False, jobs: int = 2):
    tasks = _expand(smoke)
    repeats = 2 if smoke else 3
    jobs = jobs if HAS_FORK else 1
    rows = []
    results = {
        "mode": "smoke" if smoke else "full",
        "cpus": os.cpu_count() or 1,
        "suite": {"tasks": len(tasks), "spin": SPIN, "jobs": jobs, "base_seed": BASE_SEED},
    }

    # --- fault-free overhead vs. the barrier runner --------------------
    # Interleaved best-of: alternating the two runners inside each repeat
    # cancels machine-load drift that sequential best-of blocks would
    # attribute to whichever runner went second.
    t_barrier = t_queue = float("inf")
    for _ in range(repeats):
        t_barrier = min(t_barrier, _barrier_reference(tasks, jobs))
        t_queue = min(t_queue, _work_queue(tasks, jobs))
    overhead = t_queue / t_barrier - 1.0
    results["overhead"] = {
        "barrier_seconds": t_barrier,
        "work_queue_seconds": t_queue,
        "overhead_fraction": overhead,
    }
    rows.append(
        {
            "measure": "fault-free sweep",
            "barrier_s": round(t_barrier, 3),
            "work_queue_s": round(t_queue, 3),
            "note": f"overhead {overhead:+.1%}",
        }
    )

    # --- resume after a crash ------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(Path(tmp))
        start = time.perf_counter()
        run_tasks(tasks, jobs=jobs, store=store)
        t_cold = time.perf_counter() - start
        victims = tasks[::8]  # ~12.5%: a sweep killed near the end
        for task in victims:
            store.record_path(SUITE_ID, task.digest).unlink()
        start = time.perf_counter()
        report = run_tasks(tasks, jobs=jobs, store=store, resume=True)
        t_resume = time.perf_counter() - start
    assert report.resumed == len(tasks) - len(victims), report
    assert report.executed == len(victims), report
    results["resume"] = {
        "cold_seconds": t_cold,
        "resume_seconds": t_resume,
        "recomputed_tasks": len(victims),
        "resumed_tasks": report.resumed,
        "resume_fraction": t_resume / t_cold,
    }
    rows.append(
        {
            "measure": "resume after crash",
            "barrier_s": round(t_cold, 3),
            "work_queue_s": round(t_resume, 3),
            "note": f"{len(victims)}/{len(tasks)} tasks recomputed",
        }
    )

    # --- chaos convergence ---------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        clean_dir = Path(tmp) / "clean"
        chaos_dir = Path(tmp) / "chaos"
        run_experiment(SUITE_ID, smoke=smoke, jobs=1, results_dir=clean_dir)
        faults = {tasks[3].seed: [Fault("raise", message="chaos")]}
        if HAS_FORK:
            faults[tasks[1].seed] = [Fault("kill")]
        with faulted(SUITE_ID, faults, Path(tmp) / "attempts"):
            chaos = run_experiment(
                SUITE_ID, smoke=smoke, jobs=jobs, results_dir=chaos_dir, retry_backoff=0.01
            )
        clean_bytes = (clean_dir / SUITE_ID / "manifest.json").read_bytes()
        chaos_bytes = (chaos_dir / SUITE_ID / "manifest.json").read_bytes()
    assert chaos_bytes == clean_bytes, "chaos manifest diverged from clean serial run"
    assert chaos.report.retries == len(faults), chaos.report
    results["chaos"] = {
        "injected_faults": len(faults),
        "retries": chaos.report.retries,
        "manifest_identical": True,
    }
    rows.append(
        {
            "measure": "chaos convergence",
            "barrier_s": "-",
            "work_queue_s": "-",
            "note": f"{len(faults)} faults, manifest byte-identical",
        }
    )
    return results, rows


def check_acceptance(results, smoke: bool = False):
    # The 5% ceiling needs the workers to actually run in parallel with a
    # spare core for the parent; on an oversubscribed box (cpus <= jobs)
    # scheduler contention swings both runners by >10% run-to-run, so only
    # gross regressions (e.g. an accidental barrier) are gated there.  Smoke
    # sweeps are likewise too short to amortize CI timing noise.
    contended = results["cpus"] <= results["suite"]["jobs"]
    overhead_ceiling = 0.50 if (smoke or contended) else 0.05
    resume_ceiling = 0.50 if smoke else 0.25
    assert results["overhead"]["overhead_fraction"] <= overhead_ceiling, results["overhead"]
    assert results["resume"]["resume_fraction"] <= resume_ceiling, results["resume"]
    assert results["chaos"]["manifest_identical"]


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Fault-tolerant runner overhead/recovery benchmarks."
    )
    parser.add_argument("--smoke", action="store_true", help="reduced CI sweep")
    parser.add_argument("--jobs", type=int, default=2, help="worker processes")
    args = parser.parse_args(argv)
    results, rows = run_benchmark(smoke=args.smoke, jobs=args.jobs)
    check_acceptance(results, smoke=args.smoke)
    path = write_bench_json("runner_resilience", results)
    emit_rows(
        "E-resilience",
        "fault-tolerant work queue vs barrier runner (%d tasks, %d workers)"
        % (results["suite"]["tasks"], results["suite"]["jobs"]),
        rows,
        slug="runner_resilience",
    )
    print(f"\nwrote {path}")


if __name__ == "__main__":
    main()
