"""E3 — Economies of scale and buy-at-bulk algorithm ablation (paper §4.1).

Two sub-tables share one sweep: the ``algorithms`` table solves each instance
size with every solver, and the ``economies_of_scale`` table ablates the cable
catalog (bulk vs linear).  The ``table`` key of each point routes it.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from ...core import (
    BUY_AT_BULK_ALGORITHMS,
    random_instance,
    solve_buy_at_bulk,
    solve_direct_star,
    solve_greedy_aggregation,
    trivial_lower_bound,
)
from ...economics import default_catalog, linear_catalog
from ...routing import load_concentration
from ..manifest import TaskRecord
from ..registry import ExperimentSuite, Tables, register_suite
from ..task import Task, expand_points

SCENARIO_ID = "E3"


def expand(smoke: bool) -> List[Task]:
    grid = SUITE.grid(smoke)
    counts = grid["customer_counts"]
    points: List[Dict[str, object]] = [
        {"table": "algorithms", "customers": count} for count in counts
    ]
    ablation_counts = counts[-2:]  # the two largest sizes of the sweep
    for catalog in grid["catalogs"]:
        for count in ablation_counts:
            points.append({"table": "economies_of_scale", "catalog": catalog, "customers": count})
    return expand_points(SCENARIO_ID, grid["seed"], points)


def _run_algorithms(point: Mapping[str, object], seed: int) -> Dict[str, object]:
    count = point["customers"]
    instance = random_instance(count, seed=seed, catalog=default_catalog())
    bound = trivial_lower_bound(instance)
    row: Dict[str, object] = {"customers": count, "lower_bound": round(bound, 1)}
    for name in BUY_AT_BULK_ALGORITHMS:
        solution = solve_buy_at_bulk(instance, name, seed=seed)
        row[f"{name}_cost"] = round(solution.total_cost(), 1)
        row[f"{name}_ratio"] = round(solution.total_cost() / bound, 2)
    return row


def _run_catalog_ablation(point: Mapping[str, object], seed: int) -> Dict[str, object]:
    count = point["customers"]
    catalog = default_catalog() if point["catalog"] == "default" else linear_catalog()
    instance = random_instance(count, seed=seed, catalog=catalog)
    aggregated = solve_greedy_aggregation(instance)
    star = solve_direct_star(instance)
    return {
        "catalog": point["catalog"],
        "customers": count,
        "aggregation_cost": round(aggregated.total_cost(), 1),
        "star_cost": round(star.total_cost(), 1),
        "aggregation_wins": aggregated.total_cost() < star.total_cost(),
        "traffic_concentration": round(
            load_concentration(aggregated.topology, top_fraction=0.1), 3
        ),
    }


def run_point(point: Mapping[str, object], seed: int) -> Dict[str, object]:
    if point["table"] == "algorithms":
        return _run_algorithms(point, seed)
    return _run_catalog_ablation(point, seed)


def aggregate(records: List[TaskRecord]) -> Tables:
    tables: Tables = {"algorithms": [], "economies_of_scale": []}
    for record in records:
        tables[record.point["table"]].append(record.payload)
    return tables


def check(tables: Tables, smoke: bool) -> None:
    for row in tables["algorithms"]:
        # Every aggregation-based algorithm beats the naive star at every size.
        assert row["meyerson_cost"] < row["star_cost"]
        assert row["greedy_cost"] < row["star_cost"]
        assert row["mst_cost"] < row["star_cost"]
        # And stays within a size-independent constant factor of the lower bound.
        assert row["meyerson_ratio"] < 20.0
    ratios = [row["meyerson_ratio"] for row in tables["algorithms"]]
    # Constant-factor behaviour: no systematic growth of the ratio with size.
    assert max(ratios) <= 2.5 * min(ratios)
    with_scale = [r for r in tables["economies_of_scale"] if r["catalog"] == "default"]
    without_scale = [r for r in tables["economies_of_scale"] if r["catalog"] == "linear"]
    # With economies of scale aggregation wins; with linear costs it cannot beat the star.
    assert all(row["aggregation_wins"] for row in with_scale)
    assert all(not row["aggregation_wins"] for row in without_scale)


SUITE = register_suite(
    ExperimentSuite(
        scenario_id=SCENARIO_ID,
        title="Economies of scale and algorithm comparison",
        claim=(
            "Buy-at-bulk solutions aggregate traffic onto high-capacity cables and beat "
            "naive per-customer provisioning; economies of scale drive tree formation "
            "(Section 4.1)."
        ),
        parameters={
            "customer_counts": [50, 100, 200, 400],
            "seed": 13,
            "catalogs": ["default", "linear"],
        },
        smoke={"customer_counts": [50, 100]},
        expand=expand,
        run_point=run_point,
        aggregate=aggregate,
        check=check,
    )
)
