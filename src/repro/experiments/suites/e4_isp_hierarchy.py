"""E4 — Single-ISP hierarchy vs population served (paper §2.2).

One task per (objective, city count), plus one demand-model ablation task.
This sweep pins the scenario seed *inside every point* (``seed``): the
experiment compares designs across city counts over the same underlying
population family, so the population/design seed must be shared across
points, not derived per task — the derived task seed would decouple the
sizes and break the monotone-growth claim the experiment gates on.  Because
the pinned seed is part of the point, it still participates in the content
address and the determinism contract.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from ...core import ISPGenerator, ISPParameters
from ...geography import gravity_demand, uniform_demand
from ...routing import route_demand
from ...topology import summarize_hierarchy
from ...workloads import scaled_population
from ...workloads.scenarios import scenario_for
from ..manifest import TaskRecord
from ..registry import ExperimentSuite, Tables, register_suite
from ..task import Task, expand_points

SCENARIO_ID = "E4"


def expand(smoke: bool) -> List[Task]:
    scenario = scenario_for(SCENARIO_ID, smoke)
    params = scenario.parameters
    points: List[Dict[str, object]] = [
        {
            "table": "hierarchy",
            "objective": objective,
            "cities": cities,
            "scale": params["customers_per_city_scale"],
            "seed": params["seed"],
        }
        for objective in params["objectives"]
        for cities in params["city_counts"]
    ]
    points.append(
        {
            "table": "demand_ablation",
            "objective": "cost",
            "cities": params["city_counts"][0] + 2,
            "scale": params["customers_per_city_scale"],
            "seed": params["seed"],
        }
    )
    return expand_points(SCENARIO_ID, params["seed"], points)


def _design_isp(num_cities: int, objective: str, scale: float, seed: int):
    population = scaled_population(num_cities, seed=seed)
    parameters = ISPParameters(
        num_cities=num_cities,
        coverage_fraction=0.7,
        customers_per_city_scale=scale,
        objective=objective,
        seed=seed,
    )
    return ISPGenerator(population=population, parameters=parameters).generate()


def _run_hierarchy(point: Mapping[str, object]) -> Dict[str, object]:
    design = _design_isp(point["cities"], point["objective"], point["scale"], point["seed"])
    topo = design.topology
    summary = summarize_hierarchy(topo)
    return {
        "objective": point["objective"],
        "cities": point["cities"],
        "pops": design.pop_count(),
        "nodes": topo.num_nodes,
        "links": topo.num_links,
        "core": summary.count("core"),
        "distribution": summary.count("distribution") + summary.count("access"),
        "customers": summary.count("customer"),
        "backbone_fraction": round(summary.backbone_fraction, 3),
        "customer_depth": round(summary.mean_customer_depth, 2),
        "total_cost": round(topo.total_cost(), 1),
    }


def _run_demand_ablation(point: Mapping[str, object]) -> Dict[str, object]:
    """Gravity vs uniform demand: gravity concentrates backbone load unevenly."""
    design = _design_isp(point["cities"], point["objective"], point["scale"], point["seed"])
    backbone_nodes = set(design.backbone_nodes())
    backbone = design.topology.subgraph(backbone_nodes, name="backbone")
    cities = [design.population.city(name) for name in design.pop_cities]
    endpoint_map = {c.name: f"core:{c.name}" for c in cities}
    row: Dict[str, object] = {"cities": point["cities"]}
    for label, matrix in [
        ("gravity", gravity_demand(cities, total_volume=1000.0)),
        ("uniform", uniform_demand([c.name for c in cities], total_volume=1000.0)),
    ]:
        route_demand(backbone, matrix, endpoint_map=endpoint_map).flush()
        loads = sorted((link.load for link in backbone.links()), reverse=True)
        total = sum(loads) or 1.0
        top_share = sum(loads[: max(1, len(loads) // 10)]) / total
        row[f"{label}_top_decile_share"] = round(top_share, 3)
    return row


def run_point(point: Mapping[str, object], seed: int) -> Dict[str, object]:
    # ``seed`` (the derived task seed) is intentionally unused here; see the
    # module docstring for why this sweep shares the pinned ``point["seed"]``.
    if point["table"] == "hierarchy":
        return _run_hierarchy(point)
    return _run_demand_ablation(point)


def aggregate(records: List[TaskRecord]) -> Tables:
    tables: Tables = {"hierarchy": [], "demand_ablation": []}
    for record in records:
        tables[record.point["table"]].append(record.payload)
    return tables


def check(tables: Tables, smoke: bool) -> None:
    rows = tables["hierarchy"]
    cost_rows = [r for r in rows if r["objective"] == "cost"]
    # A three-level hierarchy emerges at every size.
    for row in rows:
        assert row["core"] > 0 and row["distribution"] > 0 and row["customers"] > 0
    # More cities -> more PoPs, more nodes, higher cost (monotone growth).
    assert all(a["pops"] <= b["pops"] for a, b in zip(cost_rows, cost_rows[1:]))
    assert all(a["nodes"] < b["nodes"] for a, b in zip(cost_rows, cost_rows[1:]))
    assert all(a["total_cost"] < b["total_cost"] for a, b in zip(cost_rows, cost_rows[1:]))
    # The backbone remains a small fraction of the network (hierarchy, not mesh).
    assert all(row["backbone_fraction"] < 0.5 for row in rows)
    # The profit formulation never enters more cities than the cost formulation.
    for cost_row in cost_rows:
        profit_row = next(
            r
            for r in rows
            if r["objective"] == "profit" and r["cities"] == cost_row["cities"]
        )
        assert profit_row["pops"] <= cost_row["pops"]
    for row in tables["demand_ablation"]:
        assert row["gravity_top_decile_share"] >= row["uniform_top_decile_share"] - 0.05


SUITE = register_suite(
    ExperimentSuite(
        scenario_id=SCENARIO_ID,
        title="Single-ISP WAN/MAN/LAN hierarchy",
        expand=expand,
        run_point=run_point,
        aggregate=aggregate,
        check=check,
        base_seed=scenario_for(SCENARIO_ID).parameters["seed"],
    )
)
