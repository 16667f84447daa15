"""E6 — AS graphs from interconnected ISPs (paper §2.3, §3.2).

One task per ISP count of the scenario sweep.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from ...core import InternetGenerator, PeeringPolicy
from ...metrics import classify_tail, degree_statistics
from ..manifest import TaskRecord
from ..registry import ExperimentSuite, Tables, register_suite
from ..task import Task, expand_grid

SCENARIO_ID = "E6"


def expand(smoke: bool) -> List[Task]:
    grid = SUITE.grid(smoke)
    return expand_grid(
        SCENARIO_ID,
        grid["seed"],
        {"isps": grid["isp_counts"]},
        constants={"cities": grid["num_cities"]},
    )


def _coverage_degree_correlation(internet) -> float:
    pairs = [(internet.coverage(name), internet.as_degree(name)) for name in internet.isps]
    n = len(pairs)
    mean_x = sum(x for x, _ in pairs) / n
    mean_y = sum(y for _, y in pairs) / n
    sxx = sum((x - mean_x) ** 2 for x, _ in pairs)
    syy = sum((y - mean_y) ** 2 for _, y in pairs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in pairs)
    if sxx == 0 or syy == 0:
        return 0.0
    return sxy / (sxx * syy) ** 0.5


def run_point(point: Mapping[str, object], seed: int) -> Dict[str, object]:
    internet = InternetGenerator(
        num_isps=point["isps"],
        num_cities=point["cities"],
        policy=PeeringPolicy(min_shared_cities=1, probability=0.7),
        seed=seed,
    ).generate()
    as_graph = internet.as_graph
    stats = degree_statistics(as_graph)
    merged = internet.router_level_graph()
    return {
        "isps": point["isps"],
        "as_links": as_graph.num_links,
        "as_mean_degree": round(stats.mean, 2),
        "as_max_degree": stats.maximum,
        "as_tail": classify_tail(as_graph.degree_sequence()).verdict,
        "coverage_degree_corr": round(_coverage_degree_correlation(internet), 3),
        "router_nodes": merged.num_nodes,
        "router_links": merged.num_links,
    }


def aggregate(records: List[TaskRecord]) -> Tables:
    return {"main": [record.payload for record in records]}


def check(tables: Tables, smoke: bool) -> None:
    rows = tables["main"]
    for row in rows:
        # AS degree is strongly driven by geographic coverage.
        assert row["coverage_degree_corr"] > 0.3
        # The router-level graph is a much larger, structurally different object.
        assert row["router_nodes"] > row["isps"]
        assert row["router_links"] >= row["as_links"]
    # AS graphs grow with the number of ISPs.
    assert all(a["as_links"] < b["as_links"] for a, b in zip(rows, rows[1:]))


SUITE = register_suite(
    ExperimentSuite(
        scenario_id=SCENARIO_ID,
        title="AS graph from ISP peering",
        claim=(
            "Interconnecting optimization-designed ISPs yields the AS graph; AS degree "
            "reflects geographic coverage, and the router- and AS-level formulations "
            "differ (Sections 2.3, 3.2)."
        ),
        parameters={"isp_counts": [20, 40, 80], "num_cities": 30, "seed": 23},
        smoke={"isp_counts": [10, 20], "num_cities": 20},
        expand=expand,
        run_point=run_point,
        aggregate=aggregate,
        check=check,
    )
)
