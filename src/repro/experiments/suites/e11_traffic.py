"""E11 — Batched demand routing and ECMP flow splitting (supplementary).

One task per (demand model, routing mode) over a fixed national backbone:
cities of a scaled population connected by an MST skeleton plus
highest-gravity shortcut links.  Each task compiles its demand matrix
(gravity with swept distance exponents, uniform, hub-skewed) against the
compiled backbone, routes it through the vectorized traffic engine
(:mod:`repro.routing.engine`), provisions cables straight from the engine's
edge-load column, and reports utilization/concentration statistics plus the
engine's kernel counters.

The gates pin the engine's contracts:

* **one shortest-path search per unique demand source** — the batched-
  assignment claim, asserted per task from ``traffic_batched_sources``;
* every compiled pair is assigned (the backbone is connected);
* **ECMP conservation** — under hop weights every tied shortest path has the
  same hop count, so the single-path and ECMP runs of the same matrix must
  carry identical total volume-hops; ECMP must actually split
  (``traffic_ecmp_splits > 0``) and must never concentrate load more than
  the single-path tree;
* demand-model shape shows up in the loads: stronger gravity exponents and
  hub skew concentrate traffic at least as much as uniform demand;
* provisioning from the edge column leaves no overloaded link.

(Equal-split routing does *not* uniformly lower concentration statistics —
splits can land on trunks that already carry other sources' flow — so the
mode comparison gates conservation and genuine redistribution, not a
direction.)

Routing runs on hop weights so that equal-cost ties exist by construction
(Euclidean lengths are tie-free almost surely); the wall-clock ≥10x gate of
the engine vs the per-pair reference lives in ``benchmarks/bench_traffic.py``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from ...core.objectives import PRICE_PER_UNIT, SUBSCRIPTION
from ...economics.cables import default_catalog
from ...economics.provisioning import provision_topology
from ...geography.demand import DemandMatrix, gravity_demand, uniform_demand
from ...geography.population import City
from ...optimization.mst import prim_mst_points
from ...routing.engine import route_demand
from ...routing.utilization import load_concentration, utilization_report
from ...topology.compiled import KERNEL_COUNTERS
from ...topology.graph import Topology
from ...workloads.cities import scaled_population
from ...workloads.matrices import hub_skewed_matrix
from ..manifest import TaskRecord
from ..registry import ExperimentSuite, Tables, register_suite
from ..task import Task, expand_points

SCENARIO_ID = "E11"

#: Routing weight for the sweep: unit hop weights make equal-cost ties
#: plentiful, which is what gives the ECMP mode something to split.
ROUTE_WEIGHT = "hops"


def build_backbone(num_cities: int, shortcuts: int, seed: int) -> Tuple[Topology, List[City]]:
    """A deterministic national backbone: MST over cities + gravity shortcuts."""
    population = scaled_population(num_cities, seed=seed)
    cities = list(population.cities)
    topology = Topology(name=f"traffic-backbone-{num_cities}")
    for city in cities:
        topology.add_node(city.name, location=city.location)
    for u, v in prim_mst_points([c.location for c in cities]):
        if not topology.has_link(cities[u].name, cities[v].name):
            topology.add_link(cities[u].name, cities[v].name)
    ranking = gravity_demand(cities, total_volume=1.0)
    added = 0
    for a, b, _volume in ranking.top_pairs(len(cities) * 4):
        if added >= shortcuts:
            break
        if not topology.has_link(a, b):
            topology.add_link(a, b)
            added += 1
    return topology, cities


def build_demand(model: str, cities: List[City], total_volume: float) -> DemandMatrix:
    """The demand matrix for one swept demand-model name."""
    if model.startswith("gravity-"):
        exponent = float(model.split("-", 1)[1])
        return gravity_demand(cities, total_volume=total_volume, distance_exponent=exponent)
    if model == "uniform":
        return uniform_demand([c.name for c in cities], total_volume=total_volume)
    if model == "hub-skewed":
        hub = max(cities, key=lambda c: c.population)
        return hub_skewed_matrix(cities, hub.name, hub_fraction=0.6, total_volume=total_volume)
    raise ValueError(f"unknown demand model {model!r}")


def expand(smoke: bool) -> List[Task]:
    params = SUITE.grid(smoke)
    points: List[Dict[str, object]] = [
        {
            "model": model,
            "mode": mode,
            "num_cities": params["num_cities"],
            "shortcuts": params["backbone_shortcuts"],
            "total_volume": params["total_volume"],
            "seed": params["seed"],
        }
        for model in params["demand_models"]
        for mode in params["modes"]
    ]
    return expand_points(SCENARIO_ID, params["seed"], points)


def run_point(point: Mapping[str, object], seed: int) -> Dict[str, object]:
    # The backbone/demand seed is pinned in the point: every task must see
    # the same network and matrices so modes and models stay comparable.
    topology, cities = build_backbone(
        int(point["num_cities"]), int(point["shortcuts"]), int(point["seed"])
    )
    matrix = build_demand(str(point["model"]), cities, float(point["total_volume"]))
    compiled = matrix.compile(topology)
    unique_sources = len(set(compiled.sources))

    before = KERNEL_COUNTERS.snapshot()
    # Pinned to the canonical Python backend: the sweep routes on unit hop
    # weights, where single-path mode depends on predecessor tie-breaking and
    # scipy's tree may pick a different (equally shortest) tied optimum.
    # Payloads therefore stay byte-identical across environments; the numpy
    # batch path is gated separately by E12 and benchmarks/bench_traffic.py.
    flow = route_demand(compiled, weight=ROUTE_WEIGHT, mode=str(point["mode"]), backend="python")
    after = KERNEL_COUNTERS.snapshot()

    install_cost = provision_topology(topology, default_catalog(), flow=flow)
    utilization = utilization_report(topology, flow)
    volumes = compiled.volumes
    revenue = len(volumes) * SUBSCRIPTION + sum(volumes) * PRICE_PER_UNIT
    return {
        "model": point["model"],
        "mode": point["mode"],
        "pairs": compiled.num_pairs,
        "unique_sources": unique_sources,
        "searches": after["traffic_batched_sources"] - before["traffic_batched_sources"],
        "assigned_pairs": after["traffic_assigned_pairs"] - before["traffic_assigned_pairs"],
        "ecmp_splits": after["traffic_ecmp_splits"] - before["traffic_ecmp_splits"],
        "routed_volume": round(flow.routed_volume, 6),
        "unrouted_pairs": len(flow.unrouted),
        "total_load": round(sum(flow.edge_loads), 6),
        "top_decile_share": round(load_concentration(topology, 0.1, flow), 4),
        "mean_utilization": round(utilization.mean_utilization, 4),
        "peak_utilization": round(utilization.peak_utilization, 4),
        "overloaded_links": len(utilization.overloaded_links),
        "install_cost": round(install_cost, 1),
        "traffic_revenue": round(revenue, 1),
    }


def aggregate(records: List[TaskRecord]) -> Tables:
    return {"main": [record.payload for record in records]}


def check(tables: Tables, smoke: bool) -> None:
    rows = tables["main"]
    assert rows, "E11 expanded no tasks"
    by_key = {(row["model"], row["mode"]): row for row in rows}
    for row in rows:
        # Batched assignment: exactly one search per unique demand source.
        assert row["searches"] == row["unique_sources"], row
        # The backbone is connected: every compiled pair routes.
        assert row["assigned_pairs"] == row["pairs"], row
        assert row["unrouted_pairs"] == 0, row
        # Provisioning from the engine's edge column covers every load.
        assert row["overloaded_links"] == 0, row
        assert row["install_cost"] > 0, row
        if row["mode"] == "ecmp":
            # Tied hop-count paths exist by construction; ECMP must split.
            assert row["ecmp_splits"] > 0, row
            single = by_key[(row["model"], "single")]
            # Same hop counts on every tied path: total volume-hops conserved.
            assert abs(row["total_load"] - single["total_load"]) <= 1e-6 * max(
                1.0, single["total_load"]
            ), (row, single)
            # The splits genuinely moved flow off the single-path tree.
            assert (
                row["top_decile_share"] != single["top_decile_share"]
                or row["mean_utilization"] != single["mean_utilization"]
            ), (row, single)
    # Demand-model shape: distance-suppressed (gravity) and hub-concentrated
    # matrices concentrate backbone load at least as much as uniform demand.
    for mode in ("single", "ecmp"):
        uniform_row = by_key[("uniform", mode)]
        for model in ("gravity-2.0", "hub-skewed"):
            assert (
                by_key[(model, mode)]["top_decile_share"]
                >= uniform_row["top_decile_share"] - 0.05
            ), (model, mode)


SUITE = register_suite(
    ExperimentSuite(
        scenario_id=SCENARIO_ID,
        title="Batched demand routing and ECMP flow splitting",
        claim=(
            "Supplementary: traffic demand is one of the key inputs to the "
            "optimization formulation (Section 2.2) — the demand model's "
            "spatial structure, not the topology alone, determines where "
            "capacity must be provisioned."
        ),
        parameters={
            "seed": 53,
            "num_cities": 40,
            "total_volume": 10_000.0,
            "backbone_shortcuts": 12,
            "demand_models": [
                "gravity-0.5",
                "gravity-1.0",
                "gravity-2.0",
                "uniform",
                "hub-skewed",
            ],
            "modes": ["single", "ecmp"],
        },
        smoke={"num_cities": 20},
        expand=expand,
        run_point=run_point,
        aggregate=aggregate,
        check=check,
    )
)
