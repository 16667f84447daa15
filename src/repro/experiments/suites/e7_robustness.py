"""E7 — Robust-yet-fragile behaviour of HOT designs (paper §3.1).

One task per subject topology; the failure-response comparison across
subjects happens in the gates.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from ...core import (
    design_access_network,
    generate_fkp_tree,
    random_instance,
    solve_meyerson,
)
from ...generators import ErdosRenyiGenerator
from ...metrics import robustness_summary
from ..manifest import TaskRecord
from ..registry import ExperimentSuite, Tables, register_suite
from ..task import Task, expand_points

SCENARIO_ID = "E7"

SUBJECTS = [
    "fkp-tree",
    "buy-at-bulk-tree",
    "metro-tree",
    "metro-with-redundancy",
    "random-mesh",
]


def expand(smoke: bool) -> List[Task]:
    grid = SUITE.grid(smoke)
    points = [
        {
            "subject": subject,
            "num_nodes": grid["num_nodes"],
            "max_fraction": grid["max_fraction"],
        }
        for subject in SUBJECTS
    ]
    return expand_points(SCENARIO_ID, grid["seed"], points)


def _build_subject(subject: str, num_nodes: int, seed: int):
    if subject == "fkp-tree":
        return generate_fkp_tree(num_nodes, alpha=4.0, seed=seed)
    if subject == "buy-at-bulk-tree":
        return solve_meyerson(random_instance(num_nodes - 1, seed=seed), seed=seed).topology
    if subject == "metro-tree":
        return design_access_network(num_nodes // 2, seed=seed, redundancy=False).topology
    if subject == "metro-with-redundancy":
        return design_access_network(num_nodes // 2, seed=seed, redundancy=True).topology
    assert subject == "random-mesh", f"unknown subject {subject!r}"
    return ErdosRenyiGenerator(target_mean_degree=4.0).generate(num_nodes, seed=seed)


def run_point(point: Mapping[str, object], seed: int) -> Dict[str, object]:
    topology = _build_subject(point["subject"], point["num_nodes"], seed)
    summary = robustness_summary(topology, steps=8, max_fraction=point["max_fraction"], seed=seed)
    return {
        "topology": point["subject"],
        "nodes": topology.num_nodes,
        "random_auc": round(summary["random_auc"], 3),
        "targeted_auc": round(summary["targeted_auc"], 3),
        "fragility_gap": round(summary["fragility_gap"], 3),
    }


def aggregate(records: List[TaskRecord]) -> Tables:
    return {"main": [record.payload for record in records]}


def check(tables: Tables, smoke: bool) -> None:
    by_name = {row["topology"]: row for row in tables["main"]}
    # HOT designs survive random failures far better than targeted attacks ...
    for name in ("fkp-tree", "buy-at-bulk-tree", "metro-tree", "metro-with-redundancy"):
        assert by_name[name]["random_auc"] > by_name[name]["targeted_auc"]
        assert by_name[name]["fragility_gap"] > 0.1
    # ... while the degree-matched random mesh has a much smaller gap and keeps
    # most of its connectivity even under targeted removal.
    assert by_name["random-mesh"]["fragility_gap"] < by_name["fkp-tree"]["fragility_gap"]
    for name in ("fkp-tree", "buy-at-bulk-tree", "metro-tree"):
        assert by_name["random-mesh"]["targeted_auc"] > by_name[name]["targeted_auc"]
    # Redundant concentrator uplinks (footnote 7) never make targeted attacks worse.
    assert (
        by_name["metro-with-redundancy"]["targeted_auc"]
        >= by_name["metro-tree"]["targeted_auc"] - 0.05
    )


SUITE = register_suite(
    ExperimentSuite(
        scenario_id=SCENARIO_ID,
        title="Robust-yet-fragile: random vs targeted failures",
        claim=(
            "HOT systems are robust to designed-for uncertainty yet fragile to rare "
            "perturbations: targeted removal of aggregation hubs is catastrophic while "
            "random failures are tolerated (Section 3.1)."
        ),
        parameters={"num_nodes": 500, "seed": 29, "max_fraction": 0.3},
        smoke={"num_nodes": 240},
        expand=expand,
        run_point=run_point,
        aggregate=aggregate,
        check=check,
    )
)
