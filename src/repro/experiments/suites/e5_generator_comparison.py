"""E5 — Optimization-driven vs descriptive generators (paper §1, §3.2).

One task per model (three HOT constructions plus every registered
descriptive baseline); each task builds its topology and evaluates the full
metric suite.  The cross-model disagreement measures are computed at
aggregation time from the per-task payloads.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping

from ...core import generate_fkp_tree, random_instance, solve_meyerson
from ...generators import available_generators, make_generator
from ...metrics import evaluate_topology
from ..manifest import TaskRecord
from ..registry import ExperimentSuite, Tables, register_suite
from ..task import Task, expand_points

SCENARIO_ID = "E5"

#: Columns shown in the report table (the payload keeps the full suite).
REPORT_COLUMNS = [
    "mean_degree",
    "max_degree",
    "tail_verdict_code",
    "avg_clustering",
    "avg_path_hops",
    "distortion",
    "cycle_edge_fraction",
    "assortativity",
    "fragility_gap",
]


def expand(smoke: bool) -> List[Task]:
    grid = SUITE.grid(smoke)
    models = [f"hot:{name}" for name in grid["hot_models"]]
    models += [f"desc:{name}" for name in grid["baselines"] if name in available_generators()]
    points = [
        {"model": model, "num_nodes": grid["num_nodes"], "sample_size": grid["sample_size"]}
        for model in models
    ]
    return expand_points(SCENARIO_ID, grid["seed"], points)


def _build_topology(model: str, num_nodes: int, seed: int):
    if model == "hot:fkp-powerlaw":
        return generate_fkp_tree(num_nodes, alpha=4.0, seed=seed)
    if model == "hot:fkp-exponential":
        return generate_fkp_tree(num_nodes, alpha=2.0 * num_nodes**0.5, seed=seed)
    if model == "hot:buy-at-bulk":
        return solve_meyerson(random_instance(num_nodes - 1, seed=seed), seed=seed).topology
    assert model.startswith("desc:"), f"unknown model {model!r}"
    return make_generator(model[len("desc:") :]).generate(num_nodes, seed=seed)


def run_point(point: Mapping[str, object], seed: int) -> Dict[str, object]:
    topology = _build_topology(point["model"], point["num_nodes"], seed)
    report = evaluate_topology(
        topology, name=point["model"], sample_size=point["sample_size"], seed=seed
    )
    return {"model": point["model"], "metrics": report.metrics}


def aggregate(records: List[TaskRecord]) -> Tables:
    rows = []
    for record in records:
        row: Dict[str, object] = {"model": record.payload["model"]}
        metrics = record.payload["metrics"]
        for column in REPORT_COLUMNS:
            value = metrics.get(column)
            row[column] = round(value, 3) if isinstance(value, float) else value
        rows.append(row)
    return {"metrics": rows}


def _disagreement(rows: List[Dict[str, object]], metric: str) -> float:
    values = [
        row[metric]
        for row in rows
        if isinstance(row[metric], (int, float)) and math.isfinite(row[metric])
    ]
    return (max(values) - min(values)) if values else float("nan")


def check(tables: Tables, smoke: bool) -> None:
    rows = tables["metrics"]
    by_model = {row["model"]: row for row in rows}
    ba = by_model["desc:barabasi-albert"]
    fkp_pl = by_model["hot:fkp-powerlaw"]
    buyatbulk = by_model["hot:buy-at-bulk"]
    # Agreement on the "chosen metric": both BA and intermediate-alpha FKP
    # show heavy-tailed degrees (power-law or at worst inconclusive).
    assert ba["tail_verdict_code"] >= 0
    assert fkp_pl["tail_verdict_code"] >= 0
    # ... but disagreement everywhere else:
    # HOT designs are trees (no cycles, distortion 1), BA is not.
    assert abs(fkp_pl["cycle_edge_fraction"]) < 1e-9
    assert abs(buyatbulk["cycle_edge_fraction"]) < 1e-9
    assert ba["cycle_edge_fraction"] > 0.2
    assert ba["distortion"] > 1.05
    # Clustering separates the families as well.
    assert ba["avg_clustering"] >= fkp_pl["avg_clustering"]
    # The disagreement across the ensemble is large even though sizes match.
    assert _disagreement(rows, "avg_path_hops") > 1.0
    assert _disagreement(rows, "cycle_edge_fraction") > 0.3


SUITE = register_suite(
    ExperimentSuite(
        scenario_id=SCENARIO_ID,
        title="Optimization-driven vs descriptive generators",
        claim=(
            "Generators matching the chosen metric (degree distribution) look very "
            "dissimilar on others (clustering, hierarchy, distortion) (Sections 1, 3.2)."
        ),
        parameters={
            "num_nodes": 600,
            "seed": 19,
            "baselines": [
                "barabasi-albert",
                "glp",
                "plrg",
                "inet",
                "waxman",
                "transit-stub",
                "erdos-renyi",
            ],
            "hot_models": ["fkp-powerlaw", "fkp-exponential", "buy-at-bulk"],
            "sample_size": 40,
        },
        smoke={"num_nodes": 300, "sample_size": 30},
        expand=expand,
        run_point=run_point,
        aggregate=aggregate,
        check=check,
    )
)
