"""E2 — Buy-at-bulk access design degree distributions (paper §4.2).

One task per (placement, customer count) of the scenario grid; each task
builds its instance and runs the Meyerson-style incremental algorithm with
the task's derived seed.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from ...core import random_instance, solve_meyerson
from ...metrics import ccdf_linear_fit_r2, classify_tail, topology_degree_ccdf
from ..manifest import TaskRecord
from ..registry import ExperimentSuite, Tables, register_suite
from ..task import Task, expand_grid

SCENARIO_ID = "E2"


def expand(smoke: bool) -> List[Task]:
    grid = SUITE.grid(smoke)
    return expand_grid(
        SCENARIO_ID,
        grid["seed"],
        {"placement": grid["placements"], "customers": grid["customer_counts"]},
    )


def run_point(point: Mapping[str, object], seed: int) -> Dict[str, object]:
    count = point["customers"]
    clustered = point["placement"] == "clustered"
    instance = random_instance(count, seed=seed, clustered=clustered)
    solution = solve_meyerson(instance, seed=seed)
    degrees = solution.topology.degree_sequence()
    ccdf = topology_degree_ccdf(solution.topology)
    tail = classify_tail(degrees)
    return {
        "placement": point["placement"],
        "customers": count,
        "is_tree": solution.topology.is_tree(),
        "max_degree": max(degrees),
        "tail_verdict": tail.verdict,
        "exponential_rate": round(tail.exponential.rate, 3),
        "r2_loglinear": round(ccdf_linear_fit_r2(ccdf, log_x=False, log_y=True), 3),
        "r2_loglog": round(ccdf_linear_fit_r2(ccdf, log_x=True, log_y=True), 3),
        "cost": round(solution.total_cost(), 1),
    }


def aggregate(records: List[TaskRecord]) -> Tables:
    return {"main": [record.payload for record in records]}


def check(tables: Tables, smoke: bool) -> None:
    rows = tables["main"]
    # Paper §4.2: solutions are trees ...
    assert all(row["is_tree"] for row in rows)
    # ... and none of them exhibits a power-law degree tail;
    assert all(row["tail_verdict"] != "power-law" for row in rows)
    # the majority are positively classified as exponential.
    exponential = sum(1 for row in rows if row["tail_verdict"] == "exponential")
    assert exponential >= len(rows) / 2
    # No giant hub: max degree stays far below the customer count.
    assert all(row["max_degree"] < row["customers"] / 4 for row in rows)


SUITE = register_suite(
    ExperimentSuite(
        scenario_id=SCENARIO_ID,
        title="Buy-at-bulk access design degree distribution",
        claim=(
            "The Meyerson-style approximation yields tree topologies with exponential "
            "node degree distributions under realistic cable parameters (Section 4.2)."
        ),
        parameters={
            "customer_counts": [100, 200, 400],
            "seed": 11,
            "placements": ["uniform", "clustered"],
        },
        smoke={"customer_counts": [60, 120]},
        expand=expand,
        run_point=run_point,
        aggregate=aggregate,
        check=check,
    )
)
