"""E13 — Temporal traffic: diurnal series, flash crowds, cascades (supplementary).

Three kinds of task over the E11-style national backbone (MST over scaled
cities plus gravity shortcuts), all routed through the temporal engine
(:mod:`repro.routing.temporal`) with the canonical Python backend pinned so
payloads stay byte-identical across environments:

* **diurnal** — a sinusoidal load curve on hop weights.  Every step changes
  every pair, so the diff engine must re-resolve every source every step
  (``temporal_resolved_sources == steps * unique_sources``), and single-path
  routing on hop weights conserves volume–hops exactly: per step, the sum of
  the edge-load column must equal ``sum(volume * hop_distance)`` over the
  step's pairs (checked against independently computed hop distances).
* **flash** — multiplicative spikes on sampled hotspots over an *integral*
  base matrix.  Gates the diff contract: per-step load columns are
  bit-identical (SHA-256) to ``reuse=False`` (re-resolve everything) and to
  a from-scratch ``route_demand`` of each step's matrix, while the diff path
  re-resolves strictly fewer sources than steps × unique sources — counter-
  proven engagement, not assumed.
* **cascade** — one task per survivability headroom.  The backbone is
  provisioned for the base load, then a surged demand cascades to a fixed
  point.  Gates: the fixed point is deterministic (two runs hash
  identically), backend-parity holds when scipy is available (per-round
  SHA-256 of load columns and identical trip sequences), ``cascade_trips``
  counts exactly the links tripped, round-1 trips are monotone non-
  increasing in headroom (higher slack can only shrink the first trip set —
  round-1 loads are headroom-independent), and a trip-free cascade sheds
  nothing.  *Total* shed is deliberately **not** gated monotone: a slightly
  smaller first trip set can reroute flow into a worse second-round pattern
  and end up shedding more — cascade survivability is non-monotone in
  slack, which is exactly the fragility phenomenon the sweep documents.
  Only the endpoints are gated: the tightest headroom must trip and shed,
  the loosest (``headroom >= surge - 1``, provably trip-free) must serve
  everything.

The ≥5x diff-vs-scratch wall-clock floor lives in
``benchmarks/bench_temporal.py``.
"""

from __future__ import annotations

import hashlib
import random
from array import array
from itertools import combinations
from typing import Dict, List, Mapping

from ...economics.cables import default_catalog
from ...economics.provisioning import provision_topology
from ...geography.demand import DemandMatrix
from ...routing.engine import route_demand
from ...routing.temporal import (
    compile_series,
    diurnal_series,
    failure_cascade,
    flash_crowd,
    route_series,
)
from ...topology.compiled import (
    KERNEL_COUNTERS,
    dijkstra_indices,
    have_numpy_backend,
)
from ...workloads.scenarios import scenario_for
from ..manifest import TaskRecord
from ..registry import ExperimentSuite, Tables, register_suite
from ..task import Task, expand_points
from .e11_traffic import build_backbone

SCENARIO_ID = "E13"

#: Relative tolerance of the per-step volume–hop conservation gate.
CONSERVATION_RTOL = 1e-9


def integral_matrix(cities, pairs: int, total_volume: float, seed: int) -> DemandMatrix:
    """A deterministic demand matrix with *integral* volumes.

    Integral volumes are what the bit-identity gates require: subtree and
    per-source sums of integers are exact, so diff routing, from-scratch
    routing, and both backends must agree bit-for-bit on tie-free weights.
    ``total_volume`` only sets the scale (volumes are ``randint`` draws up to
    ``total_volume / pairs`` rounded to at least 16).
    """
    rng = random.Random(seed)
    names = [city.name for city in cities]
    all_pairs = list(combinations(names, 2))
    chosen = rng.sample(all_pairs, min(pairs, len(all_pairs)))
    top = max(16, int(total_volume / max(1, pairs)))
    matrix = DemandMatrix(endpoints=list(names))
    for a, b in chosen:
        matrix.set_demand(a, b, float(rng.randint(1, top)))
    return matrix


def _column_digest(column) -> str:
    """SHA-256 of an edge-load column, matching ``TemporalStepResult.load_hash``."""
    return hashlib.sha256(array("d", column).tobytes()).hexdigest()


def expand(smoke: bool) -> List[Task]:
    scenario = scenario_for(SCENARIO_ID, smoke)
    params = scenario.parameters
    shared = {
        "num_cities": params["num_cities"],
        "shortcuts": params["backbone_shortcuts"],
        "total_volume": params["total_volume"],
        "seed": params["seed"],
    }
    points: List[Dict[str, object]] = [
        {
            "kind": "diurnal",
            "steps": params["diurnal_steps"],
            "amplitude": params["diurnal_amplitude"],
            **shared,
        },
        {
            "kind": "flash",
            "steps": params["flash_steps"],
            "hotspots": params["flash_hotspots"],
            "spike": params["flash_spike"],
            "duration": params["flash_duration"],
            **shared,
        },
    ]
    for headroom in params["headrooms"]:
        points.append(
            {
                "kind": "cascade",
                "surge": params["cascade_surge"],
                "headroom": headroom,
                **shared,
            }
        )
    return expand_points(SCENARIO_ID, params["seed"], points)


def _build_instance(point: Mapping[str, object]):
    base_seed = int(point["seed"])
    topology, cities = build_backbone(int(point["num_cities"]), int(point["shortcuts"]), base_seed)
    matrix = integral_matrix(
        cities,
        pairs=4 * int(point["num_cities"]),
        total_volume=float(point["total_volume"]),
        seed=base_seed + 1,
    )
    return topology, matrix


def _run_diurnal(point: Mapping[str, object]) -> Dict[str, object]:
    topology, matrix = _build_instance(point)
    series = diurnal_series(
        matrix,
        num_steps=int(point["steps"]),
        amplitude=float(point["amplitude"]),
    )
    compiled = compile_series(topology, series)
    unique_sources = compiled.unique_sources
    before = KERNEL_COUNTERS.snapshot()
    # Hop weights make the volume–hop conservation law exact for single-path
    # routing: every routed pair contributes volume * hop_distance.
    result = route_series(compiled, weight="hops", backend="python")
    after = KERNEL_COUNTERS.snapshot()
    graph = compiled.graph
    weights = graph.edge_weight_column("hops")
    hop_dist = {
        source: dijkstra_indices(graph, source, weights)[0]
        for source in set(compiled.sources)
    }
    max_rel_err = 0.0
    for t, step in enumerate(result.steps):
        expected = sum(
            volume * hop_dist[source][target]
            for source, target, volume in zip(
                compiled.sources, compiled.targets, compiled.step_volumes[t]
            )
            if volume > 0
        )
        err = abs(sum(step.edge_loads) - expected) / max(1.0, expected)
        max_rel_err = max(max_rel_err, err)
    return {
        "kind": "diurnal",
        "steps": result.num_steps,
        "pairs": compiled.num_pairs,
        "unique_sources": unique_sources,
        "resolved_sources": result.resolved_sources_total,
        "temporal_steps": after["temporal_steps"] - before["temporal_steps"],
        "temporal_resolved": after["temporal_resolved_sources"]
        - before["temporal_resolved_sources"],
        "conservation_max_rel_err": float(max_rel_err),
        "min_served": round(min(result.served_fractions()), 6),
        "peak_total_load": round(max(sum(step.edge_loads) for step in result.steps), 6),
    }


def _run_flash(point: Mapping[str, object]) -> Dict[str, object]:
    topology, matrix = _build_instance(point)
    series = flash_crowd(
        matrix,
        num_steps=int(point["steps"]),
        num_hotspots=int(point["hotspots"]),
        spike=float(point["spike"]),
        duration=int(point["duration"]),
        seed=int(point["seed"]) + 2,
    )
    compiled = compile_series(topology, series)
    unique_sources = compiled.unique_sources
    before = KERNEL_COUNTERS.snapshot()
    diff = route_series(compiled, backend="python")
    mid = KERNEL_COUNTERS.snapshot()
    full = route_series(compiled, backend="python", reuse=False)
    after = KERNEL_COUNTERS.snapshot()
    resolved_diff = mid["temporal_resolved_sources"] - before["temporal_resolved_sources"]
    resolved_full = after["temporal_resolved_sources"] - mid["temporal_resolved_sources"]
    scratch_identical = all(
        _column_digest(route_demand(topology, series.steps[t], backend="python").edge_loads)
        == diff.steps[t].load_hash()
        for t in range(len(series))
    )
    return {
        "kind": "flash",
        "steps": diff.num_steps,
        "pairs": compiled.num_pairs,
        "unique_sources": unique_sources,
        "resolved_diff": resolved_diff,
        "resolved_full": resolved_full,
        "quiet_steps": sum(1 for step in diff.steps[1:] if step.resolved_sources == 0),
        "diff_engaged": resolved_diff < diff.num_steps * unique_sources,
        "bit_identical": diff.step_hashes() == full.step_hashes(),
        "scratch_identical": scratch_identical,
        "routed_volume_t0": round(diff.steps[0].routed_volume, 6),
    }


def _run_cascade(point: Mapping[str, object]) -> Dict[str, object]:
    topology, matrix = _build_instance(point)
    flow = route_demand(topology, matrix, backend="python")
    provision_topology(topology, default_catalog(), flow=flow)
    surge = matrix.scaled(float(point["surge"]))
    headroom = float(point["headroom"])
    before = KERNEL_COUNTERS.snapshot()
    cascade = failure_cascade(topology, surge, backend="python", headroom=headroom)
    after = KERNEL_COUNTERS.snapshot()
    repeat = failure_cascade(topology, surge, backend="python", headroom=headroom)
    parity_checked = have_numpy_backend()
    parity_ok = True
    if parity_checked:
        numpy_run = failure_cascade(topology, surge, backend="numpy", headroom=headroom)
        parity_ok = (
            numpy_run.step_hashes() == cascade.step_hashes()
            and numpy_run.tripped_keys == cascade.tripped_keys
        )
    final = cascade.rounds[-1].flow
    return {
        "kind": "cascade",
        "headroom": headroom,
        "rounds": cascade.num_rounds,
        "total_trips": cascade.total_trips,
        "round1_trips": len(cascade.rounds[0].tripped),
        "trip_counter": after["cascade_trips"] - before["cascade_trips"],
        "served_fraction": round(cascade.served_fraction, 6),
        "shed_volume": round(final.unrouted_volume, 6),
        "fixed_point": cascade.fixed_point,
        "deterministic": repeat.step_hashes() == cascade.step_hashes(),
        "parity_checked": parity_checked,
        "parity_ok": parity_ok,
        "final_hash": cascade.step_hashes()[-1],
    }


def run_point(point: Mapping[str, object], seed: int) -> Dict[str, object]:
    kind = str(point["kind"])
    if kind == "diurnal":
        return _run_diurnal(point)
    if kind == "flash":
        return _run_flash(point)
    return _run_cascade(point)


def aggregate(records: List[TaskRecord]) -> Tables:
    # The three point kinds report different columns, so each gets its own
    # table (heterogeneous rows would break the table renderer).
    payloads = [record.payload for record in records]
    return {
        "main": [row for row in payloads if row["kind"] == "diurnal"],
        "flash": [row for row in payloads if row["kind"] == "flash"],
        "cascade": [row for row in payloads if row["kind"] == "cascade"],
    }


def check(tables: Tables, smoke: bool) -> None:
    by_kind = {
        "diurnal": tables["main"],
        "flash": tables["flash"],
        "cascade": tables["cascade"],
    }
    assert all(by_kind.values()), {k: len(v) for k, v in by_kind.items()}

    for row in by_kind["diurnal"]:
        # Single-path routing on hop weights conserves volume-hops per step.
        assert row["conservation_max_rel_err"] <= CONSERVATION_RTOL, row
        # The diurnal curve changes every pair every step: the diff engine
        # must re-resolve everything (and the counters must agree).
        expected = row["steps"] * row["unique_sources"]
        assert row["resolved_sources"] == expected, row
        assert row["temporal_resolved"] == expected, row
        assert row["temporal_steps"] == row["steps"], row
        # The backbone is connected: nothing is shed.
        assert row["min_served"] == 1.0, row

    for row in by_kind["flash"]:
        # The diff contract: identical loads, strictly less work.
        assert row["bit_identical"], row
        assert row["scratch_identical"], row
        assert row["diff_engaged"], row
        assert row["resolved_diff"] < row["resolved_full"], row
        assert row["resolved_full"] == row["steps"] * row["unique_sources"], row
        # Quiet steps (no spike window boundary) re-resolve nothing.
        assert row["quiet_steps"] >= 1, row

    cascade_rows = sorted(by_kind["cascade"], key=lambda row: row["headroom"])
    assert len(cascade_rows) >= 2, cascade_rows
    for row in cascade_rows:
        assert row["fixed_point"], row
        assert row["deterministic"], row
        if row["parity_checked"]:
            assert row["parity_ok"], row
        # cascade_trips counts exactly the tripped links of the (first) run.
        assert row["trip_counter"] == row["total_trips"], row
        assert 0.0 <= row["served_fraction"] <= 1.0, row
        if row["total_trips"] == 0:
            assert row["served_fraction"] == 1.0, row
            assert row["shed_volume"] == 0.0, row
    # Round-1 loads are headroom-independent, so a higher trip threshold can
    # only shrink the first trip set.  Total shed is NOT gated monotone —
    # fewer first-round failures can reroute into a worse second-round
    # pattern (see the module docstring) — so only the sweep endpoints are
    # pinned: the tightest headroom trips and sheds, the loosest (provably
    # trip-free) serves everything.
    for lower, higher in zip(cascade_rows, cascade_rows[1:]):
        assert higher["round1_trips"] <= lower["round1_trips"], (lower, higher)
    assert cascade_rows[0]["total_trips"] > 0, cascade_rows[0]
    assert cascade_rows[0]["served_fraction"] < 1.0, cascade_rows[0]
    assert cascade_rows[-1]["total_trips"] == 0, cascade_rows[-1]
    assert (
        cascade_rows[-1]["served_fraction"]
        >= cascade_rows[0]["served_fraction"]
    ), (cascade_rows[0], cascade_rows[-1])


SUITE = register_suite(
    ExperimentSuite(
        scenario_id=SCENARIO_ID,
        title="Temporal traffic: diurnal series, flash crowds, cascades",
        expand=expand,
        run_point=run_point,
        aggregate=aggregate,
        check=check,
        base_seed=scenario_for(SCENARIO_ID).parameters["seed"],
    )
)
