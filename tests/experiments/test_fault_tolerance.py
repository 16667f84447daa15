"""Chaos suite for the fault-tolerant runner (repro.experiments.runner).

The convergence contract under test: because every task carries its own
SHA-256-derived seed, a retried or resumed task is bit-identical to a
first-run task, so *any* injected fault schedule that ends without
quarantines must converge to the byte-identical manifest of a clean serial
run — and a quarantining schedule must flag the manifest degraded while
keeping the surviving entries byte-identical.

Faults come from ``tests/chaos.py``: each test re-registers the suite with a
``run_point`` that fails on scheduled attempts, runs the sweep, and restores
the clean suite before it computes the reference manifest.
"""

import json
import multiprocessing
import random

import pytest

from repro.experiments import (
    DegradedSweepError,
    ExperimentSuite,
    ResultStore,
    register_suite,
    run_experiment,
    run_tasks,
)
from repro.experiments.task import expand_grid

from chaos import Fault, InjectedFault, faulted, faulty

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="parallel workers need fork start method")

SUITE_ID = "TX-chaos"
FAST = dict(retry_backoff=0.01)  # keep injected-failure tests quick


def _expand(smoke):
    sizes = [3, 5] if smoke else [3, 5, 7, 9, 11, 13]
    return expand_grid(SUITE_ID, 11, {"n": sizes})


def _run_point(point, seed):
    rng = random.Random(seed)
    return {"n": point["n"], "draws": [rng.randrange(1000) for _ in range(point["n"])]}


def _aggregate(records):
    return {"main": [record.payload for record in records]}


register_suite(
    ExperimentSuite(
        scenario_id=SUITE_ID,
        title="synthetic chaos test suite",
        expand=_expand,
        run_point=_run_point,
        aggregate=_aggregate,
        parameters={"seed": 11},
    )
)

TASKS = _expand(False)
KILL = Fault("kill")
RAISE = Fault("raise")


def _faulted(tmp_path, schedule):
    """Fault the chaos suite with ``schedule`` (task seed -> per-attempt faults)."""
    return faulted(SUITE_ID, schedule, tmp_path / "attempts")


def _clean_manifest(tmp_path):
    """The reference: a clean serial run's manifest bytes."""
    clean_dir = tmp_path / "clean"
    run_experiment(SUITE_ID, jobs=1, results_dir=clean_dir)
    return (clean_dir / SUITE_ID / "manifest.json").read_bytes()


class TestFaultPlan:
    def test_schedule_indexed_by_attempt(self, tmp_path):
        # Attempt n takes the schedule's n-th entry; None entries, attempts
        # past the end and seeds outside the schedule run the real point.
        task, other = TASKS[0], TASKS[1]
        run = faulty(_run_point, {task.seed: [RAISE, None, RAISE]}, tmp_path)
        clean = _run_point(task.point_dict, task.seed)
        with pytest.raises(InjectedFault, match="attempt 1"):
            run(task.point_dict, task.seed)
        assert run(task.point_dict, task.seed) == clean
        with pytest.raises(InjectedFault, match="attempt 3"):
            run(task.point_dict, task.seed)
        assert run(task.point_dict, task.seed) == clean
        assert run(other.point_dict, other.seed) == _run_point(other.point_dict, other.seed)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Fault("explode")


class TestWorkerDeath:
    @needs_fork
    def test_sigkill_mid_sweep_converges(self, tmp_path):
        # Two workers die mid-task; their tasks are re-dispatched to fresh
        # workers and the manifest is byte-identical to the clean serial run.
        chaos_dir = tmp_path / "chaos"
        with _faulted(tmp_path, {TASKS[1].seed: [KILL], TASKS[4].seed: [KILL]}):
            result = run_experiment(SUITE_ID, jobs=3, results_dir=chaos_dir, **FAST)
        assert result.report.retries >= 2
        assert not result.report.quarantined
        chaos = (chaos_dir / SUITE_ID / "manifest.json").read_bytes()
        assert chaos == _clean_manifest(tmp_path)

    @needs_fork
    def test_repeated_kill_quarantines_degraded(self, tmp_path):
        # A task whose worker dies on every attempt exhausts its retries; the
        # sweep still completes, flagged degraded, with the surviving entries
        # byte-identical to the clean manifest's.
        victim = TASKS[2]
        chaos_dir = tmp_path / "chaos"
        with _faulted(tmp_path, {victim.seed: [KILL] * 3}):
            result = run_experiment(
                SUITE_ID, jobs=2, results_dir=chaos_dir, max_retries=2, strict=False, **FAST
            )
        assert result.degraded and set(result.report.quarantined) == {victim.digest}
        assert "worker died" in result.report.quarantined[victim.digest]
        assert result.tables == {} and not result.gates_checked
        manifest = json.loads((chaos_dir / SUITE_ID / "manifest.json").read_text())
        clean = json.loads(_clean_manifest(tmp_path))
        assert manifest["degraded"] is True
        assert [e["digest"] for e in manifest["quarantined"]] == [victim.digest]
        surviving = [e for e in clean["tasks"] if e["digest"] != victim.digest]
        assert manifest["tasks"] == surviving
        # The quarantine marker survives for post-mortem and names the error.
        marker = ResultStore(chaos_dir).quarantine_marker_path(SUITE_ID, victim.digest)
        assert "worker died" in json.loads(marker.read_text())["error"]


class TestRetries:
    @pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=needs_fork)])
    def test_flaky_task_retries_until_success(self, tmp_path, jobs):
        # Fails twice, succeeds on the third attempt — within the default
        # retry budget, so the sweep converges with no quarantine.
        chaos_dir = tmp_path / "chaos"
        with _faulted(tmp_path, {TASKS[3].seed: [RAISE, RAISE]}):
            result = run_experiment(
                SUITE_ID, jobs=jobs, results_dir=chaos_dir, max_retries=2, **FAST
            )
        assert result.report.retries == 2
        assert not result.report.quarantined
        chaos = (chaos_dir / SUITE_ID / "manifest.json").read_bytes()
        assert chaos == _clean_manifest(tmp_path)

    def test_exhausted_retries_quarantine_serial(self, tmp_path):
        always = TASKS[0]
        with _faulted(tmp_path, {always.seed: [Fault("raise", message="still broken")] * 3}):
            report = run_tasks(TASKS, store=ResultStore(tmp_path), max_retries=2, **FAST)
        assert report.degraded
        assert report.quarantined[always.digest] == "InjectedFault: still broken"
        assert report.retries == 2
        assert len(report.records) == len(TASKS) - 1
        # Once the fault clears, a resume run completes the sweep and the
        # successful store clears the quarantine marker.
        store = ResultStore(tmp_path)
        resumed = run_tasks(TASKS, store=store, resume=True)
        assert resumed.resumed == len(TASKS) - 1 and resumed.executed == 1
        assert not resumed.degraded
        assert not store.quarantine_marker_path(SUITE_ID, always.digest).exists()

    def test_strict_run_experiment_raises_degraded(self, tmp_path):
        with _faulted(tmp_path, {TASKS[5].seed: [RAISE] * 2}):
            with pytest.raises(DegradedSweepError) as excinfo:
                run_experiment(SUITE_ID, results_dir=tmp_path, max_retries=1, **FAST)
        # The partial manifest was written before the raise.
        result = excinfo.value.result
        assert result.manifest_path is not None and result.manifest_path.exists()
        assert json.loads(result.manifest_path.read_text())["degraded"] is True


class TestTimeouts:
    @needs_fork
    def test_timeout_quarantine_degraded_parallel(self, tmp_path):
        sleeper = TASKS[2]
        with _faulted(tmp_path, {sleeper.seed: [Fault("sleep", seconds=30.0)] * 2}):
            result = run_experiment(
                SUITE_ID,
                jobs=2,
                results_dir=tmp_path,
                max_retries=1,
                task_timeout=0.4,
                strict=False,
                **FAST,
            )
        assert result.report.timeouts == 2
        assert set(result.report.quarantined) == {sleeper.digest}
        assert "timeout after 0.4s" in result.report.quarantined[sleeper.digest]

    def test_timeout_serial_via_sigalrm(self, tmp_path):
        sleeper = TASKS[1]
        with _faulted(tmp_path, {sleeper.seed: [Fault("sleep", seconds=30.0)] * 2}):
            report = run_tasks(
                TASKS, store=ResultStore(tmp_path), max_retries=1, task_timeout=0.3, **FAST
            )
        assert report.timeouts == 2
        assert set(report.quarantined) == {sleeper.digest}

    @needs_fork
    def test_slow_task_within_budget_completes(self, tmp_path):
        with _faulted(tmp_path, {TASKS[0].seed: [Fault("sleep", seconds=0.1)]}):
            result = run_experiment(
                SUITE_ID, jobs=2, results_dir=tmp_path, task_timeout=10.0, **FAST
            )
        assert result.report.timeouts == 0 and not result.report.quarantined


class TestStoreCorruption:
    def test_truncated_cache_entry_quarantined_and_recomputed(self, tmp_path):
        clean = _clean_manifest(tmp_path)
        store_dir = tmp_path / "clean"
        victim = ResultStore(store_dir).record_path(SUITE_ID, TASKS[4].digest)
        victim.write_bytes(victim.read_bytes()[:17])  # torn write
        result = run_experiment(SUITE_ID, results_dir=store_dir, resume=True)
        assert result.report.corrupt_quarantined == 1
        assert result.report.executed == 1
        assert result.report.cache_hits == len(TASKS) - 1
        corrupt = victim.with_name(victim.name + ".corrupt")
        assert corrupt.exists() and victim.exists()  # quarantined + recomputed
        assert (store_dir / SUITE_ID / "manifest.json").read_bytes() == clean


class TestInterruptResume:
    def test_interrupted_serial_sweep_resumes_to_identical_manifest(self, tmp_path):
        # Ctrl-C (deterministically injected) at task index 3: the serial
        # runner propagates the interrupt, but tasks 0-2 were streamed into
        # the store per task, so the resumed sweep is 3 cache hits + 3 fresh
        # tasks and its manifest is byte-identical to a clean serial run.
        clean = _clean_manifest(tmp_path)
        interrupted_dir = tmp_path / "interrupted"
        with _faulted(tmp_path, {TASKS[3].seed: [Fault("interrupt")]}):
            with pytest.raises(KeyboardInterrupt):
                run_experiment(SUITE_ID, jobs=1, results_dir=interrupted_dir)
        store = ResultStore(interrupted_dir)
        stored = [p for p in store.scenario_dir(SUITE_ID).glob("*.json")]
        assert len(stored) == 3  # streamed per task, no manifest yet
        result = run_experiment(SUITE_ID, jobs=1, results_dir=interrupted_dir, resume=True)
        assert result.report.resumed == 3 and result.report.executed == 3
        assert (interrupted_dir / SUITE_ID / "manifest.json").read_bytes() == clean

    @needs_fork
    def test_interrupted_parallel_resume_with_more_jobs(self, tmp_path):
        # Resuming under a different job count must not change a byte either.
        clean = _clean_manifest(tmp_path)
        interrupted_dir = tmp_path / "interrupted"
        with _faulted(tmp_path, {TASKS[5].seed: [Fault("interrupt")]}):
            with pytest.raises(KeyboardInterrupt):
                run_experiment(SUITE_ID, jobs=1, results_dir=interrupted_dir)
        result = run_experiment(SUITE_ID, jobs=3, results_dir=interrupted_dir, resume=True)
        assert result.report.resumed == 5 and result.report.executed == 1
        assert (interrupted_dir / SUITE_ID / "manifest.json").read_bytes() == clean

    def test_resume_and_force_are_exclusive(self, tmp_path):
        with pytest.raises(ValueError):
            run_experiment(SUITE_ID, results_dir=tmp_path, resume=True, force=True)


class TestCliDegraded:
    def test_cli_reports_degraded_exit_code(self, tmp_path, capsys):
        # End to end through the in-process CLI: a faulted E1 smoke point
        # raises, exhausts its (zero) retries, and the CLI exits with the
        # distinct degraded code 3.
        from repro.cli import main
        from repro.experiments import get_suite

        victim = get_suite("E1").expand(True)[0]
        schedule = {victim.seed: [Fault("raise", message="chaos")]}
        with faulted("E1", schedule, tmp_path / "attempts"):
            code = main(
                ["run", "E1", "--smoke", "--max-retries", "0", "--results-dir", str(tmp_path)]
            )
        assert code == 3
        err = capsys.readouterr().err
        assert "DEGRADED" in err and "chaos" in err
        manifest = json.loads((tmp_path / "E1" / "manifest.json").read_text())
        assert manifest["degraded"] is True

    def test_cli_resume_force_conflict(self):
        from repro.cli import main

        assert main(["run", "E1", "--resume", "--force"]) == 2
