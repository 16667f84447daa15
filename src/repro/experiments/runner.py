"""Fault-tolerant work-queue sweep runner with deterministic seeding.

``run_tasks`` streams a task list through a crash-tolerant work queue instead
of one barrier ``pool.map``:

* **Per-task dispatch, per-task persistence.**  Each worker owns a private
  duplex pipe and executes one task at a time; the parent persists every
  :class:`~repro.experiments.manifest.TaskRecord` to the
  :class:`~repro.experiments.manifest.ResultStore` *as it completes*, so an
  interrupted sweep (Ctrl-C, OOM-kill, power loss) resumes as pure cache
  hits.  The serial ``jobs == 1`` path streams records the same way.
* **Worker-death recovery.**  Because the parent knows exactly which task
  each worker holds, a worker that dies mid-task (SIGKILL, segfault — the
  ``BrokenProcessPool`` class of failure) is detected by liveness polling,
  replaced with a freshly spawned worker, and its lost task re-dispatched.
* **Bounded retries with exponential backoff.**  A failed attempt (task
  exception, worker death, or timeout) is retried up to ``max_retries``
  times, each retry delayed by ``retry_backoff * 2**(attempt - 1)`` seconds.
* **Per-task wall-clock timeout.**  ``task_timeout`` kills a worker whose
  task overruns (parallel) or interrupts the task via ``SIGALRM`` (serial,
  main thread only) and counts the attempt as a timeout.
* **Quarantine and degraded completion.**  A task that exhausts its retry
  budget is quarantined (recorded in ``RunReport.quarantined`` and as a
  ``<digest>.quarantined.json`` marker) instead of aborting the sweep: the
  remaining 999 of 1000 tasks still complete, and the manifest is explicitly
  flagged degraded.

Determinism is unchanged from the barrier runner — and extends to faults:
every task carries its own SHA-256-derived seed, ``KERNEL_COUNTERS`` is
reset/snapshotted per task in the executing process, and records are
reassembled in task-index order.  A retried or resumed task is therefore
bit-identical to a first-run task *by construction*, so any fault schedule
that ends without quarantines converges to the byte-identical manifest of a
clean serial run.  The chaos suite pins this by re-registering a suite whose
``run_point`` fails on scheduled attempts; the runner has no injection hook.
"""

from __future__ import annotations

import math
import multiprocessing
import multiprocessing.connection
import resource
import signal
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..topology.compiled import KERNEL_COUNTERS
from .manifest import ResultStore, TaskRecord, json_safe
from .registry import Tables, get_suite, load_builtin_suites
from .task import Task

#: Default number of retries after the first failed attempt of a task.
DEFAULT_MAX_RETRIES = 2

#: Default base of the exponential retry backoff, in seconds.
DEFAULT_RETRY_BACKOFF = 0.05

#: Minimum parent wait per scheduling iteration: the floor of timeout and
#: backoff-expiry resolution (results and worker deaths wake the wait early).
_POLL_SECONDS = 0.02

#: Parent wait when no deadline or backoff expiry is pending — long, so an
#: idle parent stays off the CPU while workers compute.
_IDLE_WAIT_SECONDS = 0.5


class TaskTimeoutError(Exception):
    """A task attempt exceeded the per-task wall-clock budget."""


class DegradedSweepError(RuntimeError):
    """A strict sweep completed degraded (some tasks were quarantined).

    Raised by :func:`run_experiment` *after* the partial manifest is written,
    so everything that did complete is persisted and resumable.  The partial
    :class:`ExperimentResult` is available as ``.result``.
    """

    def __init__(self, result: "ExperimentResult") -> None:
        quarantined = result.report.quarantined
        super().__init__(
            f"{result.scenario_id}: {len(quarantined)} task(s) quarantined after "
            f"retry exhaustion: {sorted(d[:12] for d in quarantined)}"
        )
        self.result = result


def _start_method() -> str:
    """Prefer fork (fast, inherits the registry); fall back to spawn."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def peak_rss_kb() -> int:
    """Peak resident set size of this process so far, in kilobytes.

    ``ru_maxrss`` is a high-water mark, not a current reading: it only ever
    grows within a process, so per-task values reflect the largest footprint
    of the worker up to and including that task.
    """
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # macOS reports bytes; Linux and the BSDs report kilobytes.
    return int(usage // 1024 if sys.platform == "darwin" else usage)


def execute_task(task: Task) -> TaskRecord:
    """Run one task in the current process and return its record.

    ``timing`` carries wall-clock seconds and the executing process's peak
    RSS; both live outside the record's identity
    (:data:`~repro.experiments.manifest.TIMING_FIELDS`), so payload digests
    and manifests stay byte-identical across machines and memory profiles.
    """
    suite = get_suite(task.scenario_id)
    KERNEL_COUNTERS.reset()
    start = time.perf_counter()
    payload = json_safe(suite.run_point(task.point_dict, task.seed))
    elapsed = time.perf_counter() - start
    counters = KERNEL_COUNTERS.snapshot()
    return TaskRecord(
        scenario_id=task.scenario_id,
        index=task.index,
        point=task.point_dict,
        seed=task.seed,
        digest=task.digest,
        payload=payload,
        counters=dict(counters),
        timing={"seconds": round(elapsed, 6), "peak_rss_kb": peak_rss_kb()},
    )


def _error_text(error: BaseException) -> str:
    """Stable one-line description of a task failure (enters manifests)."""
    return f"{type(error).__name__}: {error}"


def _worker_loop(conn) -> None:
    """Worker entry point (module-level so it is picklable under spawn).

    Messages are ``("ok", digest, attempt, record)`` or ``("error", digest,
    attempt, text)``, sent *synchronously* on the worker's private pipe.
    Anything that is not an ``Exception`` — sentinel ``None`` (shutdown),
    ``KeyboardInterrupt``, SIGKILL — ends the process; the parent's liveness
    polling turns that into a worker-death retry.
    """
    load_builtin_suites()
    while True:
        try:
            item = conn.recv()
        except EOFError:  # pragma: no cover - parent torn down first
            return
        if item is None:
            return
        task, attempt = item
        try:
            record = execute_task(task)
        except Exception as error:  # recoverable: the parent retries/quarantines
            conn.send(("error", task.digest, attempt, _error_text(error)))
        else:
            conn.send(("ok", task.digest, attempt, record))


class _WorkerHandle:
    """One worker process plus its private duplex pipe.

    Per-worker channels are what make worker death recoverable: the parent
    always knows exactly which (task, attempt) a worker holds, so a dead
    worker's task can be re-dispatched without guessing at shared-queue
    state.  Crucially there is *no shared lock anywhere*: a shared
    ``multiprocessing.Queue`` write-lock can be left held forever by a
    SIGKILLed worker's feeder thread, deadlocking every other worker — with
    private pipes and synchronous sends, a kill can only tear that worker's
    own channel, which the parent observes as EOF/garbage and treats as
    worker death.
    """

    def __init__(self, context) -> None:
        self.conn, child_conn = context.Pipe(duplex=True)
        self.process = context.Process(target=_worker_loop, args=(child_conn,), daemon=True)
        self.process.start()
        child_conn.close()  # parent's copy of the child end
        self.digest: Optional[str] = None
        self.attempt = 0
        self.deadline: Optional[float] = None

    @property
    def busy(self) -> bool:
        return self.digest is not None

    def dispatch(self, task: Task, attempt: int, timeout: Optional[float]) -> None:
        self.digest = task.digest
        self.attempt = attempt
        self.deadline = (time.monotonic() + timeout) if timeout is not None else None
        self.conn.send((task, attempt))

    def clear_assignment(self) -> None:
        self.digest = None
        self.attempt = 0
        self.deadline = None

    def kill(self) -> None:
        """Hard-stop the worker (timeout enforcement / dead-worker cleanup)."""
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=5.0)
        self.conn.close()

    def stop(self) -> None:
        """Graceful shutdown: sentinel, short join, then hard kill."""
        if self.process.is_alive():
            try:
                self.conn.send(None)
            except (OSError, ValueError):  # pragma: no cover - pipe torn down
                pass
            self.process.join(timeout=1.0)
        self.kill()


@dataclass
class _TaskState:
    """Parent-side bookkeeping for one pending task."""

    task: Task
    attempts: int = 0  # attempts dispatched so far
    ready_at: float = 0.0  # monotonic time the next attempt becomes eligible


@dataclass
class RunReport:
    """Outcome of one sweep run, including its failure accounting.

    ``records`` holds the completed records only; a degraded run (non-empty
    ``quarantined``) is missing the quarantined tasks' records by design.
    """

    scenario_id: str
    records: List[TaskRecord]
    cache_hits: int
    executed: int
    jobs: int
    elapsed_seconds: float
    retries: int = 0
    timeouts: int = 0
    quarantined: Dict[str, str] = field(default_factory=dict)  # digest -> error
    resumed: int = 0
    corrupt_quarantined: int = 0

    @property
    def degraded(self) -> bool:
        """True when the sweep completed without some of its tasks."""
        return bool(self.quarantined)


class _SweepExecutor:
    """Shared retry/quarantine/persistence logic of the serial and parallel paths."""

    def __init__(
        self,
        store: Optional[ResultStore],
        max_retries: int,
        task_timeout: Optional[float],
        retry_backoff: float,
        report: RunReport,
    ) -> None:
        self.store = store
        self.max_retries = max_retries
        self.task_timeout = task_timeout
        self.retry_backoff = retry_backoff
        self.report = report
        self.completed: Dict[str, TaskRecord] = {}

    def backoff_seconds(self, attempts: int) -> float:
        """Exponential backoff before retry number ``attempts`` (1-based)."""
        return self.retry_backoff * (2 ** max(0, attempts - 1))

    def persist(self, record: TaskRecord) -> None:
        """Stream one completed record into the store."""
        self.completed[record.digest] = record
        if self.store is not None:
            self.store.store(record)

    def quarantine(self, task: Task, error: str) -> None:
        """Give up on a task: record it and write its marker file."""
        self.report.quarantined[task.digest] = error
        if self.store is not None:
            self.store.quarantine_task(
                task.scenario_id, task.index, task.point_dict, task.digest, error
            )


@contextmanager
def _serial_deadline(seconds: Optional[float]):
    """Enforce a wall-clock budget in-process via ``SIGALRM``.

    Only possible on the main thread (signal delivery); elsewhere — or with
    no budget — this is a no-op, and parallel runs enforce timeouts by
    killing the worker instead.
    """
    if seconds is None or threading.current_thread() is not threading.main_thread():
        yield
        return

    def _on_alarm(signum, frame):
        raise TaskTimeoutError()

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, seconds)
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _run_serial(executor: _SweepExecutor, pending: Sequence[Task]) -> None:
    """The ``jobs == 1`` path: same streaming/retry/quarantine semantics.

    ``KeyboardInterrupt`` (and other non-``Exception`` exits) propagate —
    every record completed before the interrupt is already in the store, so
    the sweep resumes as cache hits.
    """
    for task in sorted(pending, key=lambda t: t.index):
        attempt = 0
        while True:
            attempt += 1
            try:
                with _serial_deadline(executor.task_timeout):
                    record = execute_task(task)
            except TaskTimeoutError:
                executor.report.timeouts += 1
                failure = f"timeout after {executor.task_timeout}s (attempt {attempt})"
            except Exception as error:
                failure = _error_text(error)
            else:
                executor.persist(record)
                break
            if attempt > executor.max_retries:
                executor.quarantine(task, failure)
                break
            executor.report.retries += 1
            time.sleep(executor.backoff_seconds(attempt))


def _run_work_queue(executor: _SweepExecutor, pending: Sequence[Task], jobs: int) -> None:
    """The parallel path: per-worker pipes + liveness/deadline polling."""
    context = multiprocessing.get_context(_start_method())
    states = {task.digest: _TaskState(task=task) for task in pending}
    # Dispatch order: task-index order for first attempts; retries re-join at
    # the tail once their backoff expires.
    waiting: List[str] = [task.digest for task in sorted(pending, key=lambda t: t.index)]
    report = executor.report
    workers = [_WorkerHandle(context) for _ in range(min(jobs, len(pending)))]

    def _fail_attempt(digest: str, reason: str) -> None:
        state = states[digest]
        if state.attempts > executor.max_retries:
            executor.quarantine(state.task, reason)
        else:
            report.retries += 1
            state.ready_at = time.monotonic() + executor.backoff_seconds(state.attempts)
            waiting.append(digest)

    def _replace(worker: _WorkerHandle, reason: str) -> None:
        """Hard-stop a worker, respawn its slot, and retry its task (if any)."""
        digest = worker.digest
        worker.kill()
        workers[workers.index(worker)] = _WorkerHandle(context)
        if digest is not None:
            _fail_attempt(digest, reason)

    def _handle_message(worker: _WorkerHandle, kind: str, digest: str, attempt: int, payload):
        if worker.digest == digest and worker.attempt == attempt:
            worker.clear_assignment()
        if digest not in states or digest in executor.completed or digest in report.quarantined:
            return  # duplicate/stale result from a superseded attempt
        if kind == "ok":
            executor.persist(payload)
        else:
            _fail_attempt(digest, str(payload))

    try:
        while len(executor.completed) + len(report.quarantined) < len(states):
            now = time.monotonic()
            # 1. Dispatch eligible tasks to idle live workers.
            for worker in [w for w in workers if not w.busy and w.process.is_alive()]:
                eligible = next((d for d in waiting if states[d].ready_at <= now), None)
                if eligible is None:
                    break
                waiting.remove(eligible)
                state = states[eligible]
                state.attempts += 1
                try:
                    worker.dispatch(state.task, state.attempts, executor.task_timeout)
                except (OSError, ValueError):  # worker died between checks
                    _replace(worker, f"worker died during dispatch of attempt {state.attempts}")
            # 2. Drain results from every worker pipe that is ready.  A pipe
            #    torn mid-write by a kill raises on recv; that (or plain EOF)
            #    is handled as worker death so the attempt is retried.
            #    Results and worker deaths wake the wait immediately, so the
            #    timeout only needs to cover the next deadline or backoff
            #    expiry — idle waits stay long to keep the parent off the CPU.
            wait_timeout = _IDLE_WAIT_SECONDS
            for worker in workers:
                if worker.deadline is not None:
                    wait_timeout = min(wait_timeout, worker.deadline - now)
            for digest in waiting:
                if states[digest].ready_at > now:  # future backoff expiries only
                    wait_timeout = min(wait_timeout, states[digest].ready_at - now)
            ready = multiprocessing.connection.wait(
                [worker.conn for worker in workers], timeout=max(wait_timeout, _POLL_SECONDS)
            )
            for conn in ready:
                worker = next((w for w in workers if w.conn is conn), None)
                if worker is None:  # pragma: no cover - replaced this iteration
                    continue
                attempt = worker.attempt
                try:
                    message = conn.recv()
                except Exception:  # EOF or truncated pickle from a killed worker
                    _replace(
                        worker,
                        f"worker died (exit code {worker.process.exitcode}) "
                        f"during attempt {attempt}",
                    )
                else:
                    _handle_message(worker, *message)
            # 3. Liveness + deadline checks on busy workers.
            now = time.monotonic()
            for worker in list(workers):
                if not worker.busy:
                    continue
                attempt = worker.attempt
                if not worker.process.is_alive():
                    reason = (
                        f"worker died (exit code {worker.process.exitcode}) "
                        f"during attempt {attempt}"
                    )
                elif worker.deadline is not None and now > worker.deadline:
                    report.timeouts += 1
                    reason = f"timeout after {executor.task_timeout}s (attempt {attempt})"
                else:
                    continue
                _replace(worker, reason)
    finally:
        for worker in workers:
            worker.stop()


def run_tasks(
    tasks: Sequence[Task],
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    force: bool = False,
    max_retries: int = DEFAULT_MAX_RETRIES,
    task_timeout: Optional[float] = None,
    retry_backoff: float = DEFAULT_RETRY_BACKOFF,
    resume: bool = False,
) -> RunReport:
    """Execute a task list fault-tolerantly, using the cache and ``jobs`` workers.

    ``resume`` changes no execution semantics (the content-addressed cache
    already makes re-runs incremental); it marks the run as an explicit
    continuation so the cache hits are reported as ``resumed``.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    # Chained comparisons, so NaN fails them too.
    if not 0 <= max_retries < math.inf:
        raise ValueError(f"max_retries must be finite and >= 0, got {max_retries}")
    if task_timeout is not None and not 0 < task_timeout < math.inf:
        raise ValueError(f"task_timeout must be finite and > 0, got {task_timeout}")
    if not 0 <= retry_backoff < math.inf:
        raise ValueError(f"retry_backoff must be finite and >= 0, got {retry_backoff}")
    start = time.perf_counter()
    scenario_id = tasks[0].scenario_id if tasks else ""
    corrupt_before = store.corrupt_count if store is not None else 0
    by_index: Dict[int, TaskRecord] = {}
    pending: List[Task] = []
    for task in tasks:
        cached = None if (force or store is None) else store.load(task)
        if cached is not None:
            # The content address covers (scenario, point, base_seed) but not
            # the sweep position, so a record cached under an older grid
            # ordering carries a stale index; re-key it to this sweep's.
            cached.index = task.index
            by_index[task.index] = cached
        else:
            pending.append(task)

    report = RunReport(
        scenario_id=scenario_id,
        records=[],
        cache_hits=len(tasks) - len(pending),
        executed=0,
        jobs=jobs,
        elapsed_seconds=0.0,
        resumed=(len(tasks) - len(pending)) if resume else 0,
    )
    if pending:
        executor = _SweepExecutor(store, max_retries, task_timeout, retry_backoff, report)
        if jobs == 1 or len(pending) == 1:
            _run_serial(executor, pending)
        else:
            _run_work_queue(executor, pending, jobs)
        for record in executor.completed.values():
            by_index[record.index] = record
        report.executed = len(executor.completed)

    report.records = [
        by_index[task.index]
        for task in sorted(tasks, key=lambda t: t.index)
        if task.index in by_index
    ]
    report.corrupt_quarantined = (
        (store.corrupt_count - corrupt_before) if store is not None else 0
    )
    report.elapsed_seconds = time.perf_counter() - start
    return report


@dataclass
class ExperimentResult:
    """Everything a report needs about one completed experiment."""

    scenario_id: str
    title: str
    mode: str
    tables: Tables
    report: RunReport
    manifest_path: Optional[Path] = None
    gates_checked: bool = False

    @property
    def records(self) -> List[TaskRecord]:
        """The per-task records, in index order."""
        return self.report.records

    @property
    def degraded(self) -> bool:
        """True when the underlying sweep quarantined tasks."""
        return self.report.degraded


def run_experiment(
    scenario_id: str,
    smoke: bool = False,
    jobs: int = 1,
    results_dir: Optional[Path | str] = "RESULTS",
    force: bool = False,
    check: bool = True,
    max_retries: int = DEFAULT_MAX_RETRIES,
    task_timeout: Optional[float] = None,
    retry_backoff: float = DEFAULT_RETRY_BACKOFF,
    resume: bool = False,
    strict: bool = True,
) -> ExperimentResult:
    """Expand, run, persist, aggregate, and (optionally) gate one experiment.

    A degraded sweep (quarantined tasks) always writes its partial manifest
    first — flagged ``"degraded": true`` — then either raises
    :class:`DegradedSweepError` (``strict=True``, the API/bench default) or
    returns the partial result with empty tables and unchecked gates
    (``strict=False``, the CLI's mode, which maps it to a distinct exit
    code).
    """
    if resume and force:
        raise ValueError("resume and force are mutually exclusive")
    suite = get_suite(scenario_id)
    store = ResultStore(results_dir) if results_dir is not None else None
    tasks = suite.expand(smoke)
    report = run_tasks(
        tasks,
        jobs=jobs,
        store=store,
        force=force,
        max_retries=max_retries,
        task_timeout=task_timeout,
        retry_backoff=retry_backoff,
        resume=resume,
    )
    manifest_path = None
    if store is not None:
        quarantined_entries = [
            {
                "index": task.index,
                "point": task.point_dict,
                "digest": task.digest,
                "error": report.quarantined[task.digest],
            }
            for task in sorted(tasks, key=lambda t: t.index)
            if task.digest in report.quarantined
        ]
        manifest_path = store.write_manifest(
            scenario_id,
            report.records,
            title=suite.title,
            mode="smoke" if smoke else "full",
            base_seed=suite.base_seed,
            quarantined=quarantined_entries,
        )
    result = ExperimentResult(
        scenario_id=scenario_id,
        title=suite.title,
        mode="smoke" if smoke else "full",
        tables={},
        report=report,
        manifest_path=manifest_path,
        gates_checked=False,
    )
    if report.degraded:
        # Aggregates and gates assume the full grid; a partial sweep reports
        # its surviving records only.
        if strict:
            raise DegradedSweepError(result)
        return result
    result.tables = suite.aggregate(report.records)
    if check and suite.check is not None:
        suite.check(result.tables, smoke)
        result.gates_checked = True
    return result
