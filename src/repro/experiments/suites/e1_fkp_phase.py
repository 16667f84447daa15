"""E1 — FKP tradeoff phase diagram (paper §3.1), as an engine suite.

One task per alpha of the scenario sweep; each task grows the tree with its
own derived seed and reports the degree-tail measurements the experiment
gates on.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping

from ...core import alpha_regime, generate_fkp_tree
from ...metrics import (
    ccdf_linear_fit_r2,
    classify_tail,
    max_degree_share,
    topology_degree_ccdf,
)
from ..manifest import TaskRecord
from ..registry import ExperimentSuite, Tables, register_suite
from ..task import Task, expand_points

SCENARIO_ID = "E1"


def alphas(num_nodes: int) -> List[float]:
    """The alpha sweep for ``num_nodes``, across the star, power-law and exponential regimes."""
    sqrt_n = math.sqrt(num_nodes)
    return [0.1, 4.0, 10.0, sqrt_n / 2.0, 2.0 * sqrt_n, float(num_nodes)]


def expand(smoke: bool) -> List[Task]:
    grid = SUITE.grid(smoke)
    num_nodes = grid["num_nodes"]
    points = [{"alpha": float(alpha), "num_nodes": num_nodes} for alpha in alphas(num_nodes)]
    return expand_points(SCENARIO_ID, grid["seed"], points)


def run_point(point: Mapping[str, object], seed: int) -> Dict[str, object]:
    alpha = point["alpha"]
    num_nodes = point["num_nodes"]
    tree = generate_fkp_tree(num_nodes, alpha, seed=seed)
    degrees = tree.degree_sequence()
    ccdf = topology_degree_ccdf(tree)
    tail = classify_tail(degrees)
    return {
        "alpha": round(alpha, 2),
        "predicted_regime": alpha_regime(alpha, num_nodes),
        "max_degree": max(degrees),
        "hub_share": round(max_degree_share(tree), 3),
        "measured_tail": tail.verdict,
        "power_law_exponent": round(tail.power_law.exponent, 2),
        "exponential_rate": round(tail.exponential.rate, 3),
        "r2_loglog": round(ccdf_linear_fit_r2(ccdf, log_x=True, log_y=True), 3),
        "r2_loglinear": round(ccdf_linear_fit_r2(ccdf, log_x=False, log_y=True), 3),
    }


def aggregate(records: List[TaskRecord]) -> Tables:
    return {"main": [record.payload for record in records]}


def check(tables: Tables, smoke: bool) -> None:
    rows = tables["main"]
    by_regime = {row["predicted_regime"]: row for row in rows}
    # Star regime: the root grabs ~half of all endpoints.
    assert by_regime["star"]["hub_share"] > 0.4
    # Exponential regime: bounded degrees, no power-law verdict.
    assert by_regime["exponential"]["max_degree"] < 40
    assert by_regime["exponential"]["measured_tail"] != "power-law"
    # Intermediate regime has a much heavier tail than the exponential one.
    power_law_rows = [r for r in rows if r["predicted_regime"] == "power-law"]
    assert (
        max(r["max_degree"] for r in power_law_rows)
        > 3 * by_regime["exponential"]["max_degree"]
    )
    # At least one intermediate-alpha tree is classified as power-law.
    assert any(r["measured_tail"] == "power-law" for r in power_law_rows)


SUITE = register_suite(
    ExperimentSuite(
        scenario_id=SCENARIO_ID,
        title="FKP tradeoff phase diagram",
        claim=(
            "Tuning the relative importance of distance vs centrality moves the "
            "degree distribution from star to power law to exponential (Section 3.1)."
        ),
        parameters={"num_nodes": 1000, "seed": 7},
        smoke={"num_nodes": 500},
        expand=expand,
        run_point=run_point,
        aggregate=aggregate,
        check=check,
    )
)
