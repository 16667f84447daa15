"""The benchmark's workloads: inputs, the timed operation, and output checks.

Each workload has a fixed pool of instances, one per library seed
``1..pool``. The cost of one instance varies up to 2x with its seed (FKP's
ring walk, k-median's swap count), so a run always measures whole passes
over the pool: the instance mix is the same in every run and the run-to-run
spread is measurement noise, not input luck. The run seed sets the order of
a pass (pass position ``i`` is pool entry ``(seed + i) mod pool``) and, on
fkp_pipeline, the demand endpoints. Every pool instance has its output
digest pinned in ``pins.json`` (written by ``pin.py``).

A workload exposes:

* ``setup(state)`` -> data: what must exist before the timed operation (the
  cascade instances; nothing for the others, whose generation *is* the
  operation users pay for).
* ``op(state, i)`` -> output: the timed operation at pass position ``i``.
* ``digest(state, i, output)`` -> dict: the pinned fingerprint of an output.
* ``invariants(state, i, output)``: raises ``AssertionError`` when broken.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List

from repro.core.evolution import simulate_growth
from repro.core.fkp import generate_fkp_tree
from repro.core.isp import ISPGenerator, ISPParameters
from repro.economics.cables import default_catalog
from repro.economics.provisioning import provision_topology
from repro.geography.demand import DemandMatrix, gravity_demand
from repro.geography.population import City
from repro.routing.engine import route_demand
from repro.routing.temporal import failure_cascade
from repro.topology.graph import Topology

PINS_PATH = Path(__file__).with_name("pins.json")

#: Full sizes (the measured runs) and smoke sizes (tests, ``--smoke``).
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "fkp_pipeline": {"pool": 3, "nodes": 10_000, "alpha": 10.0, "endpoints": 32},
        "isp_design": {"pool": 2, "cities": 12, "scale": 18.0, "refine": 1_000},
        "cascade": {"pool": 2, "nodes": 1_000},
        "growth": {"pool": 3, "periods": 6, "initial": 250, "per_period": 250},
    },
    "smoke": {
        "fkp_pipeline": {"pool": 2, "nodes": 600, "alpha": 10.0, "endpoints": 8},
        "isp_design": {"pool": 2, "cities": 8, "scale": 12.0, "refine": 200},
        "cascade": {"pool": 2, "nodes": 600},
        "growth": {"pool": 2, "periods": 2, "initial": 40, "per_period": 40},
    },
}

# The cable ladder's capacity steps are ~3.4-4x apart, so a provisioned link
# only trips when the surge outruns its band: 4x clears every step.
CASCADE_SURGE = 4.0
GRAVITY_VOLUME = 1e6
VOLUME_RTOL = 1e-9


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def edge_set_digest(topology: Topology) -> str:
    """SHA-256 of the sorted canonical link keys (order-independent)."""
    return _sha(repr(sorted(topology.link_keys(), key=repr)))


def float_bits(value: float) -> str:
    return struct.pack("<d", float(value)).hex()


_PINS: Dict[str, Any] = {}


def pinned(mode: str, family: str, seed: int) -> Dict[str, Any]:
    if not _PINS:
        _PINS.update(json.loads(PINS_PATH.read_text()))
    return _PINS[mode][family][str(seed)]


@dataclass
class RunState:
    mode: str
    run_seed: int
    size: Dict[str, Any]
    data: Any = None

    @property
    def pool(self) -> int:
        return self.size["pool"]

    def slot(self, i: int) -> int:
        """Pool index (0-based) of pass position ``i``."""
        return (self.run_seed + i) % self.pool

    def seed_of(self, i: int) -> int:
        """Library seed of the instance at pass position ``i``."""
        return self.slot(i) + 1


@dataclass
class Workload:
    name: str
    family: str  # SIZES and pins key: both cascade legs share one family
    setup: Callable[[RunState], Any]
    op: Callable[[RunState, int], Any]
    digest: Callable[[RunState, int, Any], Dict[str, Any]]
    invariants: Callable[[RunState, int, Any], None]

    def check(self, state: RunState, i: int, output: Any) -> None:
        self.invariants(state, i, output)
        expected = pinned(state.mode, self.family, state.seed_of(i))
        actual = self.digest(state, i, output)
        assert actual == expected, (self.name, state.seed_of(i), actual, expected)


# ----------------------------------------------------------------------
# fkp_pipeline: grow -> compile -> gravity demand -> route -> provision
# ----------------------------------------------------------------------
def gravity_matrix(topology: Topology, num_nodes: int, endpoints: int, seed: int):
    """Gravity demand over ``endpoints`` tree nodes (the E12 demand shape)."""
    rng = random.Random(seed)
    ids = sorted(rng.sample(range(num_nodes), endpoints))
    cities = [
        City(
            name=node_id,
            location=topology.node(node_id).location,
            population=rng.uniform(1e4, 1e6),
        )
        for node_id in ids
    ]
    return gravity_demand(cities, total_volume=GRAVITY_VOLUME)


def fkp_op(state: RunState, i: int):
    size = state.size
    topology = generate_fkp_tree(size["nodes"], size["alpha"], seed=state.seed_of(i))
    topology.compiled()
    demand_seed = state.run_seed * state.pool + state.slot(i)
    demand = gravity_matrix(topology, size["nodes"], size["endpoints"], demand_seed)
    compiled = demand.compile(topology)
    flow = route_demand(compiled, backend="numpy", method="flat")
    provision_topology(topology, default_catalog(), flow=flow)
    return topology, compiled, flow


def fkp_invariants(state: RunState, i: int, output) -> None:
    topology, compiled, flow = output
    assert not flow.unrouted, f"{len(flow.unrouted)} unrouted pairs"
    total = compiled.total_volume()
    assert abs(flow.routed_volume - total) <= VOLUME_RTOL * total, (
        flow.routed_volume,
        total,
    )
    overloaded = sum(1 for link in topology.links() if link.load > link.capacity)
    assert overloaded == 0, f"{overloaded} overloaded links after provisioning"


def fkp_digest(state: RunState, i: int, output) -> Dict[str, Any]:
    return {"edges": edge_set_digest(output[0])}


# ----------------------------------------------------------------------
# isp_design: k-median concentrators, buy-at-bulk feeders, refinement
# ----------------------------------------------------------------------
def isp_op(state: RunState, i: int):
    size = state.size
    parameters = ISPParameters(
        num_cities=size["cities"],
        customers_per_city_scale=size["scale"],
        refine_iterations=size["refine"],
        seed=state.seed_of(i),
    )
    return ISPGenerator(parameters=parameters).generate()


def isp_invariants(state: RunState, i: int, design) -> None:
    assert math.isfinite(design.objective_value), design.objective_value
    refinement = design.topology.metadata["refinement"]
    assert refinement["iterations"] == state.size["refine"], refinement
    assert refinement["objective_after"] <= refinement["objective_before"], refinement


def isp_digest(state: RunState, i: int, design) -> Dict[str, Any]:
    return {
        "edges": edge_set_digest(design.topology),
        "objective_bits": float_bits(design.objective_value),
    }


# ----------------------------------------------------------------------
# cascade: provisioned surge cascaded to a fixed point, restore=True
# ----------------------------------------------------------------------
@dataclass
class CascadeInstance:
    topology: Topology
    surge: DemandMatrix
    endpoint_map: Dict[str, int]
    link_keys: List[Any]


def build_cascade_instance(num_nodes: int, seed: int) -> CascadeInstance:
    """Random tree + n/2 Euclidean chords, n/10 integral pairs, 4x surge.

    Integral volumes keep every load sum exact, so both backends produce
    bit-identical per-round load columns.
    """
    rng = random.Random(seed)
    topology = Topology(name=f"cascade-{num_nodes}-{seed}")
    for i in range(num_nodes):
        topology.add_node(i, location=(rng.random(), rng.random()))
    for i in range(1, num_nodes):
        topology.add_link(i, rng.randrange(i))
    added = 0
    while added < num_nodes // 2:
        u, v = rng.randrange(num_nodes), rng.randrange(num_nodes)
        if u != v and not topology.has_link(u, v):
            topology.add_link(u, v)
            added += 1
    chosen = set()
    while len(chosen) < num_nodes // 10:
        u, v = rng.randrange(num_nodes), rng.randrange(num_nodes)
        if u != v:
            chosen.add((min(u, v), max(u, v)))
    pairs = sorted(chosen)
    volumes = [float(rng.randint(1, 16)) for _ in pairs]
    demand = DemandMatrix.from_arrays(
        [str(i) for i in range(num_nodes)],
        [u for u, _ in pairs],
        [v for _, v in pairs],
        volumes,
    )
    endpoint_map = {str(i): i for i in range(num_nodes)}
    base = route_demand(topology, demand, endpoint_map=endpoint_map, backend="numpy")
    provision_topology(topology, default_catalog(), flow=base)
    return CascadeInstance(
        topology=topology,
        surge=demand.scaled(CASCADE_SURGE),
        endpoint_map=endpoint_map,
        link_keys=list(topology.link_keys()),
    )


def cascade_setup(state: RunState) -> List[CascadeInstance]:
    """Every pool instance, built and provisioned (pool order)."""
    return [
        build_cascade_instance(state.size["nodes"], seed)
        for seed in range(1, state.pool + 1)
    ]


def make_cascade_op(backend: str):
    def op(state: RunState, i: int):
        instance = state.data[state.slot(i)]
        return failure_cascade(
            instance.topology,
            instance.surge,
            endpoint_map=instance.endpoint_map,
            backend=backend,
            restore=True,
        )

    return op


def cascade_invariants(state: RunState, i: int, result) -> None:
    instance = state.data[state.slot(i)]
    assert result.fixed_point, "cascade did not reach a fixed point"
    assert result.total_trips > 0, "cascade instance must actually trip"
    assert list(instance.topology.link_keys()) == instance.link_keys, (
        "restore=True left the link set or order changed"
    )


def cascade_digest(state: RunState, i: int, result) -> Dict[str, Any]:
    return {
        "rounds": result.num_rounds,
        "trips": result.total_trips,
        "step_hashes": _sha("\n".join(result.step_hashes())),
    }


# ----------------------------------------------------------------------
# growth: insert-only build-out on the move engine, per-period reprovision
# ----------------------------------------------------------------------
def growth_op(state: RunState, i: int):
    size = state.size
    return simulate_growth(
        periods=size["periods"],
        initial_customers=size["initial"],
        customers_per_period=size["per_period"],
        seed=state.seed_of(i),
    )


def growth_invariants(state: RunState, i: int, trace) -> None:
    assert len(trace.records) == state.size["periods"] + 1, len(trace.records)


def growth_digest(state: RunState, i: int, trace) -> Dict[str, Any]:
    return {"rows": _sha(repr(trace.as_rows()))}


def _no_setup(state: RunState) -> None:
    return None


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fkp_pipeline", "fkp_pipeline", _no_setup, fkp_op, fkp_digest, fkp_invariants),
        Workload("isp_design", "isp_design", _no_setup, isp_op, isp_digest, isp_invariants),
        Workload(
            "cascade",
            "cascade",
            cascade_setup,
            make_cascade_op("numpy"),
            cascade_digest,
            cascade_invariants,
        ),
        Workload(
            "cascade_python",
            "cascade",
            cascade_setup,
            make_cascade_op("python"),
            cascade_digest,
            cascade_invariants,
        ),
        Workload("growth", "growth", _no_setup, growth_op, growth_digest, growth_invariants),
    )
}


def make_state(name: str, run_seed: int, smoke: bool) -> RunState:
    """Build a run's inputs: the benchmark's set-up phase."""
    mode = "smoke" if smoke else "full"
    state = RunState(mode=mode, run_seed=run_seed, size=SIZES[mode][WORKLOADS[name].family])
    state.data = WORKLOADS[name].setup(state)
    return state
