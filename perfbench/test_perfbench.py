"""Smoke tests of the repository benchmark.

Every workload runs at its reduced size through the traced run, so each
output check and every layer wrapper executes; one untraced run goes through
the command line to pin the printed contract.

    python3 -m pytest perfbench -q
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.topology.compiled import KERNEL_COUNTERS, have_numpy_backend  # noqa: E402

pytestmark = pytest.mark.skipif(
    not have_numpy_backend(), reason="the benchmark runs on the numpy backend"
)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Per workload, layer metrics that must be non-zero (the layer runs there)
#: and ones that must be zero (the workload bypasses the layer).
EXPECTED = {
    "fkp_pipeline": (
        ["core.fkp.generate_s", "spatial.queries", "engine.route_s", "provisioning.provision_s"],
        ["incremental.apply_s", "facility.k_median_s", "temporal.rounds"],
    ),
    "isp_design": (
        ["facility.k_median_s", "local_search.iterations", "incremental.revert_s", "access.design_s"],
        ["core.fkp.generate_s", "temporal.rounds"],
    ),
    "cascade": (
        [
            "temporal.cascade_self_s",
            "temporal.trips",
            "compiled.compilations_per_round",
            "dynconn.tree_ops_per_round",
        ],
        ["core.fkp.generate_s", "facility.k_median_s"],
    ),
    "cascade_python": (
        ["temporal.cascade_self_s", "temporal.resolved_fraction", "incremental.apply_s"],
        ["engine.batch_calls", "facility.k_median_s"],
    ),
    "growth": (
        ["incremental.apply_s", "incremental.rebuild_s", "buyatbulk.route_tree_flows_s"],
        ["incremental.reachability_rebuilds", "temporal.rounds", "facility.k_median_s"],
    ),
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_smoke_run_checks_every_output(name):
    runner = run.Runner(name, workloads.make_state(name, 3, smoke=True))
    before = KERNEL_COUNTERS.snapshot()
    metrics = run.run_traced(runner, seconds=0.0)
    assert runner.failed == 0
    assert runner.attempted == 2 * runner.state.pool
    assert set(metrics) == {metric for metric, _, _ in layers.LAYER_METRICS}
    nonzero, zero = EXPECTED[name]
    for metric in nonzero:
        assert metrics[metric] > 0, metric
    for metric in zero:
        assert metrics[metric] == 0, metric
    # Counters are read as deltas; the benchmark never resets them.
    after = KERNEL_COUNTERS.snapshot()
    assert all(after[key] >= before[key] for key in before)


def test_tracer_restores_every_target():
    def current():
        found = []
        for module_name, class_name, attr, _ in layers.TARGETS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name).__dict__
                found.append(owner[attr])
            else:
                found.append(getattr(owner, attr))
        return found

    originals = current()
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert all(a is not b for a, b in zip(current(), originals))
    finally:
        tracer.uninstall()
    assert all(a is b for a, b in zip(current(), originals))


def test_check_rejects_an_output_that_differs_from_its_pin():
    workload = workloads.WORKLOADS["growth"]
    state = workloads.make_state("growth", 0, smoke=True)
    trace = workload.op(state, 0)
    workload.check(state, 0, trace)
    trace.records[-1].capital_spent += 1.0
    with pytest.raises(AssertionError):
        workload.check(state, 0, trace)


def test_same_seed_same_inputs_and_every_instance_pinned():
    for name in workloads.WORKLOADS:
        a = workloads.make_state(name, 5, smoke=True)
        b = workloads.make_state(name, 5, smoke=True)
        seeds = [a.seed_of(i) for i in range(a.pool)]
        assert seeds == [b.seed_of(i) for i in range(b.pool)]
        assert sorted(seeds) == list(range(1, a.pool + 1))
        for seed in seeds:
            assert workloads.pinned("full", workloads.WORKLOADS[name].family, seed)


def test_benchmark_json_matches_the_metrics_the_runs_print():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        tuple(metric) for metric in layers.LAYER_METRICS
    ]
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == ["setup_s", "wall_ref_s", "peak_rss_mb"]


def test_untraced_command_line_prints_the_contract():
    done = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            "growth",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
            "--smoke",
        ],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
        check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 3 * workloads.SIZES["smoke"]["growth"]["pool"]
    expected = {(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]}
    assert {(k, v["unit"]) for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
