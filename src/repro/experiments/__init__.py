"""Experiment orchestration engine.

The layer every workload plugs into: the experiment suites (each one's claim,
sweep grid, smoke values and gates, in :mod:`repro.experiments.suites`),
:class:`~repro.experiments.task.Task` expansion of those grids, a deterministic
fault-tolerant work-queue runner (:func:`run_tasks` / :func:`run_experiment`:
streaming per-task persistence, worker-death recovery, bounded retries,
timeouts, quarantine), the crash-safe content-addressed ``RESULTS/`` store
with per-scenario manifests, and the shared reporting helpers used by all
``benchmarks/bench_*.py`` scripts and ``python -m repro.cli run``.
"""

from .manifest import ResultStore, TaskRecord, identity_view, json_safe, payload_sha256
from .registry import (
    ExperimentSuite,
    available_experiments,
    get_suite,
    load_builtin_suites,
    register_suite,
)
from .runner import (
    DEFAULT_MAX_RETRIES,
    DEFAULT_RETRY_BACKOFF,
    DegradedSweepError,
    ExperimentResult,
    RunReport,
    TaskTimeoutError,
    execute_task,
    run_experiment,
    run_tasks,
)
from .task import (
    SCHEMA_VERSION,
    Task,
    canonical_json,
    derive_seed,
    expand_grid,
    expand_points,
    task_digest,
)

__all__ = [
    "DEFAULT_MAX_RETRIES",
    "DEFAULT_RETRY_BACKOFF",
    "SCHEMA_VERSION",
    "DegradedSweepError",
    "ExperimentResult",
    "ExperimentSuite",
    "ResultStore",
    "RunReport",
    "Task",
    "TaskRecord",
    "TaskTimeoutError",
    "available_experiments",
    "canonical_json",
    "derive_seed",
    "execute_task",
    "expand_grid",
    "expand_points",
    "get_suite",
    "identity_view",
    "json_safe",
    "load_builtin_suites",
    "payload_sha256",
    "register_suite",
    "run_experiment",
    "run_tasks",
    "task_digest",
]
