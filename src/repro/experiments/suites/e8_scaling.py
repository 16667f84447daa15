"""E8 — Approximation quality and runtime scaling (paper §4.1).

One task per instance size.  Wall-clock measurements live in each record's
``timing`` field (excluded from the identity contract), not in the payload;
the quality ratios the paper's claim is about are the deterministic payload.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from ...core import best_of_runs, random_instance, solve_meyerson, trivial_lower_bound
from ..manifest import TaskRecord
from ..registry import ExperimentSuite, Tables, register_suite
from ..task import Task, expand_grid

SCENARIO_ID = "E8"


def expand(smoke: bool) -> List[Task]:
    grid = SUITE.grid(smoke)
    return expand_grid(
        SCENARIO_ID,
        grid["seed"],
        {"customers": grid["customer_counts"]},
        constants={"best_of": grid["best_of"]},
    )


def run_point(point: Mapping[str, object], seed: int) -> Dict[str, object]:
    count = point["customers"]
    best_of = point["best_of"]
    instance = random_instance(count, seed=seed)
    bound = trivial_lower_bound(instance)
    single = solve_meyerson(instance, seed=seed)
    best = best_of_runs(instance, num_runs=best_of, seed=seed)
    return {
        "customers": count,
        "lower_bound": round(bound, 1),
        "single_ratio": round(single.total_cost() / bound, 2),
        f"best_of_{best_of}_ratio": round(best.total_cost() / bound, 2),
        "max_degree": max(single.topology.degree_sequence()),
    }


def aggregate(records: List[TaskRecord]) -> Tables:
    return {"main": [record.payload for record in records]}


def check(tables: Tables, smoke: bool) -> None:
    rows = tables["main"]
    ratios = [row["single_ratio"] for row in rows]
    # Constant-factor behaviour: the ratio does not grow systematically with size.
    assert max(ratios) <= 2.5 * min(ratios)
    # Repetition never hurts.
    for row in rows:
        best_key = next(k for k in row if k.startswith("best_of_"))
        assert row[best_key] <= row["single_ratio"] + 1e-9


SUITE = register_suite(
    ExperimentSuite(
        scenario_id=SCENARIO_ID,
        title="Approximation quality and scaling",
        claim=(
            "The randomized incremental algorithm achieves constant-factor quality "
            "independent of problem size (Section 4.1)."
        ),
        parameters={"customer_counts": [50, 100, 200, 400, 800], "seed": 31, "best_of": 3},
        smoke={"customer_counts": [50, 100, 200]},
        expand=expand,
        run_point=run_point,
        aggregate=aggregate,
        check=check,
    )
)
