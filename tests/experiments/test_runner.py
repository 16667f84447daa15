"""Tests for repro.experiments.runner — parallel/serial bit-identity, caching.

A tiny synthetic suite is registered at import time; its ``run_point`` is a
module-level function so worker processes (fork start method) can execute it.
"""

import json
import math
import multiprocessing
import random
import resource
import signal
import sys
from types import SimpleNamespace

import pytest

from repro.experiments import (
    ExperimentSuite,
    available_experiments,
    identity_view,
    register_suite,
    run_experiment,
    run_tasks,
)
from repro.experiments.manifest import ResultStore
from repro.experiments.reporting import experiment_bench_payload
from repro.experiments.runner import _serial_deadline, peak_rss_kb
from repro.experiments.task import expand_grid

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

SUITE_ID = "TX-runner"


def _expand(smoke):
    sizes = [4, 8] if smoke else [4, 8, 12, 16]
    return expand_grid(SUITE_ID, 3, {"n": sizes})


def _run_point(point, seed):
    rng = random.Random(seed)
    return {"n": point["n"], "draws": [rng.randrange(1000) for _ in range(point["n"])]}


def _aggregate(records):
    return {"main": [record.payload for record in records]}


register_suite(
    ExperimentSuite(
        scenario_id=SUITE_ID,
        title="synthetic runner test suite",
        expand=_expand,
        run_point=_run_point,
        aggregate=_aggregate,
        parameters={"seed": 3},
    )
)


class TestBitIdentity:
    @pytest.mark.skipif(not HAS_FORK, reason="parallel workers need fork start method")
    def test_parallel_and_serial_manifests_byte_identical(self, tmp_path):
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        run_experiment(SUITE_ID, jobs=1, results_dir=serial_dir)
        run_experiment(SUITE_ID, jobs=2, results_dir=parallel_dir)
        serial = (serial_dir / SUITE_ID / "manifest.json").read_bytes()
        parallel = (parallel_dir / SUITE_ID / "manifest.json").read_bytes()
        assert serial == parallel

    @pytest.mark.skipif(not HAS_FORK, reason="parallel workers need fork start method")
    def test_records_identical_modulo_timing(self, tmp_path):
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        run_experiment(SUITE_ID, jobs=1, results_dir=serial_dir)
        run_experiment(SUITE_ID, jobs=3, results_dir=parallel_dir)
        serial_files = sorted((serial_dir / SUITE_ID).glob("*.json"))
        parallel_files = sorted((parallel_dir / SUITE_ID).glob("*.json"))
        assert [p.name for p in serial_files] == [p.name for p in parallel_files]
        for a, b in zip(serial_files, parallel_files):
            if a.name == "manifest.json":
                continue
            assert identity_view(json.loads(a.read_text())) == identity_view(
                json.loads(b.read_text())
            )

    def test_rerun_payloads_identical(self, tmp_path):
        first = run_experiment(SUITE_ID, results_dir=tmp_path, force=True)
        second = run_experiment(SUITE_ID, results_dir=tmp_path, force=True)
        assert [r.payload for r in first.records] == [r.payload for r in second.records]


class TestCache:
    def test_hit_after_run_and_force_bypass(self, tmp_path):
        first = run_experiment(SUITE_ID, results_dir=tmp_path)
        assert first.report.executed == 4 and first.report.cache_hits == 0
        second = run_experiment(SUITE_ID, results_dir=tmp_path)
        assert second.report.executed == 0 and second.report.cache_hits == 4
        assert [r.cached for r in second.records] == [True] * 4
        forced = run_experiment(SUITE_ID, results_dir=tmp_path, force=True)
        assert forced.report.executed == 4 and forced.report.cache_hits == 0

    def test_smoke_and_full_do_not_share_entries(self, tmp_path):
        run_experiment(SUITE_ID, smoke=True, results_dir=tmp_path)
        full = run_experiment(SUITE_ID, smoke=False, results_dir=tmp_path)
        # The two smoke points are also full points (same point dict, same
        # base seed) and therefore legitimately shared; the others are not.
        assert full.report.cache_hits == 2
        assert full.report.executed == 2

    def test_no_store_always_executes(self):
        result = run_experiment(SUITE_ID, results_dir=None)
        assert result.report.executed == 4
        assert result.manifest_path is None


class TestRunTasks:
    def test_records_ordered_by_index_regardless_of_input_order(self, tmp_path):
        tasks = _expand(False)
        shuffled = [tasks[2], tasks[0], tasks[3], tasks[1]]
        report = run_tasks(shuffled, store=ResultStore(tmp_path))
        assert [r.index for r in report.records] == [0, 1, 2, 3]

    def test_rejects_invalid_jobs(self):
        with pytest.raises(ValueError):
            run_tasks(_expand(True), jobs=0)

    def test_rejects_a_retry_budget_that_cannot_run_out(self):
        # NaN compared false against every attempt, so a failing task was
        # retried forever.
        for retries in (math.nan, math.inf, -1):
            with pytest.raises(ValueError, match="max_retries"):
                run_tasks(_expand(True), max_retries=retries)

    def test_rejects_a_timeout_that_cannot_fire(self):
        # A NaN or infinite budget used to fail every serial attempt inside
        # setitimer, so the sweep quarantined every task instead of raising.
        for timeout in (math.nan, math.inf, 0.0, -1.0):
            with pytest.raises(ValueError, match="task_timeout"):
                run_tasks(_expand(True), task_timeout=timeout)

    def test_rejects_a_backoff_that_cannot_sleep(self):
        for backoff in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError, match="retry_backoff"):
                run_tasks(_expand(True), retry_backoff=backoff)
            with pytest.raises(ValueError, match="retry_backoff"):
                run_experiment(SUITE_ID, results_dir=None, retry_backoff=backoff)

    def test_failed_timer_arm_restores_the_alarm_handler(self):
        previous = signal.getsignal(signal.SIGALRM)
        with pytest.raises(ValueError):
            with _serial_deadline(math.nan):
                pass
        assert signal.getsignal(signal.SIGALRM) is previous


class TestPeakRss:
    def test_unit_follows_the_platform(self, monkeypatch):
        # macOS reports ru_maxrss in bytes, Linux in kilobytes.
        usage = SimpleNamespace(ru_maxrss=300 * 1024 * 1024)
        monkeypatch.setattr(resource, "getrusage", lambda who: usage)
        monkeypatch.setattr(sys, "platform", "darwin")
        assert peak_rss_kb() == 300 * 1024
        monkeypatch.setattr(sys, "platform", "linux")
        assert peak_rss_kb() == 300 * 1024 * 1024


class TestBenchPayload:
    def test_per_task_timings_come_from_the_records(self):
        result = run_experiment(SUITE_ID, results_dir=None)
        seconds = [record.timing["seconds"] for record in result.records]
        per_task = experiment_bench_payload(result)["timing"]["per_task"]
        assert per_task["total"] == round(sum(seconds), 6)
        assert per_task["max"] == round(max(seconds), 6)


class TestBuiltinSuites:
    def test_all_experiments_registered(self):
        known = available_experiments()
        expected = sorted(f"E{i}" for i in range(1, 14))
        assert expected == [e for e in known if e.startswith("E")]

    def test_e1_smoke_end_to_end(self, tmp_path):
        result = run_experiment("E1", smoke=True, jobs=1, results_dir=tmp_path)
        assert result.gates_checked
        assert len(result.records) == 6
        manifest = json.loads((tmp_path / "E1" / "manifest.json").read_text())
        assert manifest["mode"] == "smoke"
        assert manifest["num_tasks"] == 6


class TestCacheIndexRemap:
    def test_cached_records_rekeyed_after_grid_reorder(self, tmp_path):
        # Warm the cache, then serve the same points in reversed order: every
        # hit must carry the *new* sweep position, so the manifest matches a
        # forced recomputation of the reordered sweep byte for byte.
        store_dir = tmp_path / "store"
        tasks = _expand(False)
        run_tasks(tasks, store=ResultStore(store_dir))
        reordered = [
            t.__class__(t.scenario_id, i, t.point, t.base_seed)
            for i, t in enumerate(reversed(tasks))
        ]
        store = ResultStore(store_dir)
        cached_report = run_tasks(reordered, store=store)
        assert cached_report.cache_hits == len(tasks)
        assert [r.index for r in cached_report.records] == [0, 1, 2, 3]
        assert [r.point["n"] for r in cached_report.records] == [16, 12, 8, 4]
        cached_manifest = store.write_manifest("TX-reordered", cached_report.records)
        forced_report = run_tasks(reordered, store=store, force=True)
        forced_manifest = store.write_manifest("TX-reordered", forced_report.records)
        assert cached_manifest.read_bytes() == forced_manifest.read_bytes()
