"""Shared reporting and timing helpers for the benchmark harness.

Hoisted from the per-benchmark copies (``benchmarks/_report.py`` plus the
``timed``/``best_of`` helpers every ``bench_*.py`` re-implemented) so all
twelve benchmark scripts and the CLI ``run`` subcommand render and persist
results the same way:

* table rendering/persistence (``format_rows``/``emit_rows``/``emit_text``)
  writing plain-text artifacts under ``benchmarks/results/``;
* timing (``timed``, ``best_of``) and summary statistics (``percentile``,
  ``summarize_timings``);
* ``write_bench_json`` for the ``BENCH_<name>.json`` artifacts CI uploads;
* ``print_experiment`` to render an engine
  :class:`~repro.experiments.runner.ExperimentResult`.

Output locations default to the current working directory (benchmarks and CI
both run from the repository root) and can be redirected with the
``REPRO_BENCH_RESULTS`` / ``REPRO_BENCH_JSON_DIR`` environment variables.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

from .runner import ExperimentResult, RunReport


def results_dir() -> Path:
    """Directory for plain-text experiment tables."""
    return Path(os.environ.get("REPRO_BENCH_RESULTS", "benchmarks/results"))


def bench_json_dir() -> Path:
    """Directory for ``BENCH_<name>.json`` artifacts."""
    return Path(os.environ.get("REPRO_BENCH_JSON_DIR", "."))


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------
def format_rows(rows: Sequence[Dict[str, object]], min_width: int = 10) -> List[str]:
    """Render a list of homogeneous dictionaries as aligned table lines."""
    if not rows:
        return ["(no rows)"]
    header = list(rows[0].keys())
    widths = {
        column: max(min_width, len(column), *(len(str(row[column])) for row in rows))
        for column in header
    }
    lines = ["  ".join(column.rjust(widths[column]) for column in header)]
    lines.append("  ".join("-" * widths[column] for column in header))
    for row in rows:
        lines.append("  ".join(str(row[column]).rjust(widths[column]) for column in header))
    return lines


def emit_rows(
    experiment_id: str,
    title: str,
    rows: Sequence[Dict[str, object]],
    slug: str = "",
) -> None:
    """Print an experiment table and persist it under the results directory."""
    lines = [f"{experiment_id}: {title}", ""] + format_rows(rows)
    emit_text(experiment_id, title, "\n".join(format_rows(rows)), slug=slug, _lines=lines)


def emit_text(
    experiment_id: str,
    title: str,
    text: str,
    slug: str = "",
    _lines: List[str] | None = None,
) -> None:
    """Print and persist free-form experiment output."""
    body = "\n".join(_lines) if _lines is not None else f"{experiment_id}: {title}\n\n{text}"
    print("\n" + body)
    directory = results_dir()
    directory.mkdir(parents=True, exist_ok=True)
    suffix = f"_{slug}" if slug else ""
    (directory / f"{experiment_id}{suffix}.txt").write_text(body + "\n")


def resilience_summary(report: RunReport) -> Dict[str, object]:
    """The failure-accounting fields of a run, for tables and artifacts."""
    return {
        "retries": report.retries,
        "timeouts": report.timeouts,
        "quarantined": len(report.quarantined),
        "resumed": report.resumed,
        "corrupt_quarantined": report.corrupt_quarantined,
    }


def print_experiment(result: ExperimentResult, emit: bool = True) -> None:
    """Render every table of an engine run (optionally persisting the text)."""
    for table_name, rows in result.tables.items():
        slug = "" if table_name == "main" else table_name
        title = result.title if table_name == "main" else f"{result.title} — {table_name}"
        if emit:
            emit_rows(result.scenario_id, title, rows, slug=slug)
        else:
            print(f"\n{result.scenario_id}: {title}\n")
            print("\n".join(format_rows(rows)))
    report = result.report
    print(
        f"\n[{result.scenario_id}] {report.executed} task(s) executed, "
        f"{report.cache_hits} cached, jobs={report.jobs}, "
        f"{report.elapsed_seconds:.2f}s"
    )
    accounting = resilience_summary(report)
    if any(accounting.values()):
        detail = ", ".join(f"{count} {name}" for name, count in accounting.items() if count)
        status = "DEGRADED" if report.degraded else "recovered"
        print(f"[{result.scenario_id}] resilience ({status}): {detail}")


# ----------------------------------------------------------------------
# Timing
# ----------------------------------------------------------------------
def timed(callable_: Callable[[], object]) -> Tuple[float, object]:
    """Run a callable once; return ``(seconds, result)``."""
    start = time.perf_counter()
    result = callable_()
    return time.perf_counter() - start, result


def best_of(callable_: Callable[[], object], repeats: int = 3) -> Tuple[float, object]:
    """Best wall-clock over ``repeats`` runs; returns the last result."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    best = math.inf
    result = None
    for _ in range(repeats):
        seconds, result = timed(callable_)
        best = min(best, seconds)
    return best, result


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100]) of a sample."""
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be within [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def summarize_timings(seconds: Sequence[float]) -> Dict[str, float]:
    """Total/mean/p50/p90/max summary of a set of task timings."""
    if not seconds:
        return {"total": 0.0, "mean": 0.0, "p50": 0.0, "p90": 0.0, "max": 0.0}
    return {
        "total": round(sum(seconds), 6),
        "mean": round(sum(seconds) / len(seconds), 6),
        "p50": round(percentile(seconds, 50.0), 6),
        "p90": round(percentile(seconds, 90.0), 6),
        "max": round(max(seconds), 6),
    }


# ----------------------------------------------------------------------
# JSON artifacts
# ----------------------------------------------------------------------
def write_bench_json(name: str, results: Dict[str, object]) -> Path:
    """Write a ``BENCH_<name>.json`` artifact; returns its path."""
    directory = bench_json_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{name}.json"
    path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    return path


def bench_main(
    experiment_id: str,
    argv: Sequence[str] | None = None,
    json_name: str | None = None,
) -> ExperimentResult:
    """Shared ``benchmarks/bench_*.py`` entry point for engine experiments.

    Parses the common benchmark flags (``--smoke``, ``--jobs``, ``--force``),
    runs the experiment through the engine (gates included), prints its
    tables, and writes ``BENCH_<experiment>.json``.
    """
    import argparse

    parser = argparse.ArgumentParser(
        description=f"Run experiment {experiment_id} through the orchestration engine."
    )
    parser.add_argument("--smoke", action="store_true", help="reduced CI sweep")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    parser.add_argument("--force", action="store_true", help="recompute cached points")
    parser.add_argument("--resume", action="store_true", help="continue an interrupted sweep")
    parser.add_argument(
        "--max-retries", type=int, default=2, help="retries per failed task (default 2)"
    )
    parser.add_argument(
        "--task-timeout", type=float, default=None, help="per-task wall-clock budget (seconds)"
    )
    args = parser.parse_args(list(argv) if argv is not None else None)
    return run_bench(
        experiment_id,
        smoke=args.smoke,
        jobs=args.jobs,
        force=args.force,
        json_name=json_name,
        resume=args.resume,
        max_retries=args.max_retries,
        task_timeout=args.task_timeout,
    )


def run_bench(
    experiment_id: str,
    smoke: bool = False,
    jobs: int = 1,
    force: bool = False,
    json_name: str | None = None,
    resume: bool = False,
    max_retries: int = 2,
    task_timeout: float | None = None,
) -> ExperimentResult:
    """Run one engine experiment the way the benchmark harness does.

    Benches run strict: a degraded sweep raises ``DegradedSweepError`` (after
    writing its partial manifest) so CI fails loudly rather than gating
    partial tables.
    """
    from .runner import run_experiment

    result = run_experiment(
        experiment_id,
        smoke=smoke,
        jobs=jobs,
        force=force,
        resume=resume,
        max_retries=max_retries,
        task_timeout=task_timeout,
    )
    print_experiment(result)
    path = write_bench_json(json_name or experiment_id, experiment_bench_payload(result))
    print(f"wrote {path}")
    return result


def experiment_bench_payload(result: ExperimentResult) -> Dict[str, object]:
    """The ``BENCH_*.json`` payload for an engine experiment run."""
    return {
        "experiment": result.scenario_id,
        "title": result.title,
        "mode": result.mode,
        "tables": result.tables,
        "tasks": len(result.records),
        "cache_hits": result.report.cache_hits,
        "jobs": result.report.jobs,
        "gates_checked": result.gates_checked,
        "resilience": resilience_summary(result.report),
        "timing": {
            "sweep_seconds": round(result.report.elapsed_seconds, 6),
            "per_task": summarize_timings(
                [record.timing.get("seconds", 0.0) for record in result.records]
            ),
            "peak_rss_kb": max(
                (record.timing.get("peak_rss_kb", 0) for record in result.records),
                default=0,
            ),
        },
        "counters": {
            key: sum(record.counters.get(key, 0) for record in result.records)
            for key in sorted({k for record in result.records for k in record.counters})
        },
    }
