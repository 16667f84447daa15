"""E10 — Incremental delta-cost evaluation for local search (supplementary).

Each annealing task runs the *same* simulated-annealing search twice over an
access-network cable plan:

* **copy-based baseline** (:func:`copy_based_annealing`): every candidate is
  a full topology copy priced by a canonical ``objective.evaluate`` (the
  pre-engine behaviour);
* **move-based**: one working topology, typed moves applied in O(Δ) through
  :class:`~repro.optimization.incremental.IncrementalState`, rejected moves
  reverted bit-exactly.

Both searches draw moves from the same deterministic
:func:`draw_move` distribution and consume the RNG in the same order, so the
trajectories coincide and the best designs must agree (score-identical within
1e-9; the edge sets are compared too).  A third, *audited* move run re-prices
the topology with a canonical full evaluation after every applied move —
the delta-vs-full equality gate on every accepted (and attempted) move.

The wall-clock speedup gate lives in ``benchmarks/bench_local_search.py``
(timing is excluded from the engine's identity contract); this suite gates
the deterministic facts: score equality, edge-set equality, per-move
equality, ``objective_delta_evals`` dominating the move run's full
evaluations, and the ISP design-refinement point improving its objective.
"""

from __future__ import annotations

import math
import random
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Tuple

from ...core.isp import ISPGenerator, ISPParameters
from ...core.objectives import CostObjective, ProfitObjective
from ...economics.cables import CableCatalog, default_catalog
from ...optimization.incremental import (
    AddLink,
    IncrementalState,
    Move,
    RemoveLink,
    UpgradeCable,
)
from ...optimization.local_search import (
    AnnealingSchedule,
    SearchResult,
    simulated_annealing_moves,
)
from ...topology.compiled import KERNEL_COUNTERS
from ...topology.graph import Topology
from ...topology.node import NodeRole
from ..manifest import TaskRecord
from ..registry import ExperimentSuite, Tables, register_suite
from ..task import Task, expand_points

SCENARIO_ID = "E10"

#: Relative tolerance for "score-identical": float accumulation order differs
#: between running delta sums and full sweeps, nothing else may.
SCORE_RTOL = 1e-9


# ----------------------------------------------------------------------
# Shared instance + move distribution (also used by bench_local_search)
# ----------------------------------------------------------------------
class MoveContext:
    """Static draw context shared by the baseline and move-based searches.

    Everything here is independent of the evolving topology (customer id
    lists, tree links, locations), so both searches — one mutating a working
    topology, one copying candidates — see identical candidate sets as long
    as their trajectories agree.
    """

    def __init__(
        self,
        catalog: CableCatalog,
        customers: List[Any],
        tree_links: List[Tuple[Any, Any]],
        locations: Dict[Any, Tuple[float, float]],
        initial_keys: FrozenSet[Tuple[Any, Any]],
    ) -> None:
        self.catalog = catalog
        self.cables = list(catalog)
        self.customers = customers
        self.tree_links = tree_links
        self.locations = locations
        self.initial_keys = initial_keys


def build_anneal_instance(
    size: int, seed: int, catalog: Optional[CableCatalog] = None
) -> Tuple[Topology, MoveContext]:
    """A random access tree whose initial cable plan is deliberately wasteful.

    ``size`` customers attach to a random earlier node (one core at the
    center); every access link is provisioned with the *largest* catalog
    cable, leaving the search genuine room to right-size cables, add paid
    shortcuts, and tear them out again.  Deterministic per ``(size, seed)`` —
    the baseline and move-based searches each build their own copy.
    """
    catalog = catalog or default_catalog()
    rng = random.Random(seed ^ 0x5EED)
    topology = Topology(name=f"anneal-{size}")
    topology.add_node("core0", role=NodeRole.CORE, location=(0.5, 0.5))
    node_ids: List[Any] = ["core0"]
    customers: List[Any] = []
    tree_links: List[Tuple[Any, Any]] = []
    locations: Dict[Any, Tuple[float, float]] = {"core0": (0.5, 0.5)}
    big = catalog.largest
    for i in range(size):
        node_id = f"c{i:05d}"
        location = (rng.random(), rng.random())
        demand = rng.uniform(1.0, 8.0)
        topology.add_node(node_id, role=NodeRole.CUSTOMER, location=location, demand=demand)
        target = node_ids[rng.randrange(len(node_ids))]
        link = topology.add_link(node_id, target, load=demand)
        copies = max(1, math.ceil(demand / big.capacity))
        link.cable = big.name
        link.capacity = big.capacity * copies
        link.install_cost = big.install_cost * copies * link.length
        link.usage_cost = big.usage_cost * link.length
        node_ids.append(node_id)
        customers.append(node_id)
        tree_links.append((node_id, target))
        locations[node_id] = location
    context = MoveContext(
        catalog=catalog,
        customers=customers,
        tree_links=tree_links,
        locations=locations,
        initial_keys=frozenset(topology.link_keys()),
    )
    return topology, context


def draw_move(topology: Topology, rng: random.Random, context: MoveContext) -> Move:
    """Draw one candidate move; deterministic given (topology state, rng).

    55% cable right-sizing on a random tree link, 25% paid shortcut between
    two customers, 20% tear-out of a previously added shortcut.  Only
    trajectory-invariant inputs (static id lists, link-insertion order, the
    RNG) are consulted, so the copy-based and move-based searches draw
    identical moves at every step.
    """
    r = rng.random()
    if r >= 0.80:
        # Sorted: a reverted RemoveLink re-appends its link at the end of the
        # link dictionary, so raw iteration order is trajectory-dependent on
        # the move-based side while the copy-based side never reverts.
        extra = sorted(k for k in topology.link_keys() if k not in context.initial_keys)
        if extra:
            u, v = extra[rng.randrange(len(extra))]
            return RemoveLink(u, v)
    elif r >= 0.55:
        for _ in range(8):
            i = rng.randrange(len(context.customers))
            j = rng.randrange(len(context.customers))
            u, v = context.customers[i], context.customers[j]
            if u == v or topology.has_link(u, v):
                continue
            loc_u, loc_v = context.locations[u], context.locations[v]
            length = ((loc_u[0] - loc_v[0]) ** 2 + (loc_u[1] - loc_v[1]) ** 2) ** 0.5
            smallest = context.catalog.smallest
            return AddLink(
                u,
                v,
                capacity=smallest.capacity,
                length=length,
                cable=smallest.name,
                install_cost=smallest.install_cost * length,
                usage_cost=smallest.usage_cost * length,
                load=0.0,
            )
    u, v = context.tree_links[rng.randrange(len(context.tree_links))]
    index = rng.randrange(len(context.cables))
    link = topology.link(u, v)
    cable = context.cables[index]
    if cable.name == link.cable:
        # A same-cable "upgrade" has a true delta of exactly zero; the two
        # searches would then disagree on the sign of their ±1-ulp deltas and
        # desynchronize their acceptance RNG draws.  Deterministically shift
        # to the next cable instead (link.cable is trajectory state, so both
        # sides shift identically).
        cable = context.cables[(index + 1) % len(context.cables)]
    copies = max(1, math.ceil(link.load / cable.capacity)) if link.load > 0 else 1
    return UpgradeCable(
        u,
        v,
        cable=cable.name,
        capacity=cable.capacity * copies,
        install_cost=cable.install_cost * copies * link.length,
        usage_cost=cable.usage_cost * link.length,
    )


def apply_move_to_topology(topology: Topology, move: Move) -> None:
    """Replay a move on a plain topology (the copy-based baseline's applier)."""
    if isinstance(move, AddLink):
        topology.add_link(
            move.u,
            move.v,
            capacity=move.capacity,
            length=move.length,
            cable=move.cable,
            install_cost=move.install_cost,
            usage_cost=move.usage_cost,
            load=move.load,
        )
    elif isinstance(move, RemoveLink):
        topology.remove_link(move.u, move.v)
    elif isinstance(move, UpgradeCable):
        link = topology.link(move.u, move.v)
        for name in ("cable", "capacity", "install_cost", "usage_cost", "load"):
            value = getattr(move, name)
            if value is not None:
                setattr(link, name, value)
    else:  # pragma: no cover - the E10 move mix never draws other types
        raise TypeError(f"unsupported baseline move {type(move).__name__}")


def copy_based_annealing(
    topology: Topology,
    objective: CostObjective,
    context: MoveContext,
    iterations: int,
    rng: random.Random,
) -> SearchResult:
    """The copy-based baseline: anneal over full topology copies.

    Each candidate is a copy of the incumbent with one :func:`draw_move`
    replayed on it, priced by a full ``objective.evaluate``.  The schedule
    is the default :class:`AnnealingSchedule`, and ``rng`` is drawn in
    :func:`simulated_annealing_moves`' order (one move per iteration, one
    acceptance draw per uphill move only), so both searches follow one
    trajectory.
    """
    current, current_cost = topology, objective.evaluate(topology)
    best, best_cost = current, current_cost
    history = [current_cost]
    accepted = 0
    temperatures = AnnealingSchedule().temperatures(iterations)
    for temperature in temperatures:
        candidate = current.copy()
        apply_move_to_topology(candidate, draw_move(candidate, rng, context))
        candidate_cost = objective.evaluate(candidate)
        delta = candidate_cost - current_cost
        if delta <= 0 or rng.random() < math.exp(-delta / temperature):
            current, current_cost = candidate, candidate_cost
            accepted += 1
            if current_cost < best_cost:
                best, best_cost = current, current_cost
        history.append(current_cost)
    return SearchResult(
        best_solution=best,
        best_cost=best_cost,
        iterations=len(temperatures),
        accepted_moves=accepted,
        history=history,
    )


def make_objective(name: str) -> CostObjective:
    """The objective under test for one task point."""
    if name == "profit":
        return ProfitObjective()
    return CostObjective()


class AuditedState:
    """IncrementalState wrapper verifying delta-vs-full after every apply."""

    def __init__(self, inner: IncrementalState, rtol: float = SCORE_RTOL) -> None:
        self._inner = inner
        self._rtol = rtol
        self.audited_moves = 0

    @property
    def score(self) -> float:
        return self._inner.score

    @property
    def topology(self) -> Topology:
        return self._inner.topology

    @property
    def undo_depth(self) -> int:
        return self._inner.undo_depth

    def apply(self, move: Move) -> float:
        delta = self._inner.apply(move)
        self._inner.verify(self._rtol)
        self.audited_moves += 1
        return delta

    def revert(self, move: Optional[Move] = None) -> None:
        self._inner.revert(move)

    def revert_to(self, depth: int) -> None:
        self._inner.revert_to(depth)


def edge_signature(topology: Topology) -> List[str]:
    """Order-independent edge-set signature for solution comparison."""
    return sorted(repr(key) for key in topology.link_keys())


def run_anneal_pair(
    size: int,
    objective_name: str,
    iterations: int,
    seed: int,
    audit: bool = False,
) -> Dict[str, object]:
    """Run the copy-based and move-based searches; return the comparison."""
    # -- copy-based baseline ------------------------------------------
    base_topology, base_context = build_anneal_instance(size, seed)
    baseline = copy_based_annealing(
        base_topology,
        make_objective(objective_name),
        base_context,
        iterations,
        random.Random(seed),
    )

    # -- move-based (clean, counters measured) ------------------------
    move_topology, move_context = build_anneal_instance(size, seed)
    before = KERNEL_COUNTERS.snapshot()
    state = IncrementalState(move_topology, make_objective(objective_name))

    def propose(st, prng: random.Random) -> Move:
        return draw_move(st.topology, prng, move_context)

    incremental = simulated_annealing_moves(
        state, propose, max_iterations=iterations, rng=random.Random(seed)
    )
    after = KERNEL_COUNTERS.snapshot()
    delta_evals = after["objective_delta_evals"] - before["objective_delta_evals"]
    full_evals = after["objective_full_evals"] - before["objective_full_evals"]

    # -- move-based (audited: full evaluation after every applied move) --
    audited_moves = 0
    if audit:
        audit_topology, audit_context = build_anneal_instance(size, seed)
        audit_state = AuditedState(IncrementalState(audit_topology, make_objective(objective_name)))
        simulated_annealing_moves(
            audit_state,
            lambda st, prng: draw_move(st.topology, prng, audit_context),
            max_iterations=iterations,
            rng=random.Random(seed),
        )
        audited_moves = audit_state.audited_moves

    scale = max(1.0, abs(baseline.best_cost))
    return {
        "kind": "anneal",
        "size": size,
        "objective": objective_name,
        "iterations": iterations,
        "baseline_best": baseline.best_cost,
        "incremental_best": incremental.best_cost,
        "scores_equal": bool(abs(baseline.best_cost - incremental.best_cost) <= SCORE_RTOL * scale),
        "identical_edges": bool(
            edge_signature(baseline.best_solution)
            == edge_signature(incremental.best_solution)
        ),
        "baseline_accepted": baseline.accepted_moves,
        "incremental_accepted": incremental.accepted_moves,
        "delta_evals": delta_evals,
        "incremental_full_evals": full_evals,
        "audited_moves": audited_moves,
    }


def run_isp_refine_point(point: Mapping[str, object], seed: int) -> Dict[str, object]:
    """ISP design-iteration wiring: refinement must not worsen the objective."""

    def design(refine_iterations: int):
        parameters = ISPParameters(
            num_cities=int(point["num_cities"]),
            customers_per_city_scale=6.0,
            feeder_algorithm=str(point["feeder_algorithm"]),
            refine_iterations=refine_iterations,
            seed=seed % (1 << 30),
        )
        return ISPGenerator(parameters=parameters).generate()

    base = design(0)
    refined = design(int(point["refine_iterations"]))
    meta = refined.topology.metadata.get("refinement", {})
    return {
        "kind": "isp-refine",
        "feeder_algorithm": point["feeder_algorithm"],
        "objective_base": base.objective_value,
        "objective_refined": refined.objective_value,
        "accepted_moves": meta.get("accepted_moves", 0),
        "improved": bool(refined.objective_value <= base.objective_value + 1e-9),
    }


# ----------------------------------------------------------------------
# Engine wiring
# ----------------------------------------------------------------------
def expand(smoke: bool) -> List[Task]:
    parameters = SUITE.grid(smoke)
    points: List[Dict[str, object]] = [
        {
            "kind": "anneal",
            "size": size,
            "objective": objective,
            "iterations": parameters["anneal_iterations"],
        }
        for size in parameters["sizes"]
        for objective in parameters["objectives"]
    ]
    points.append({"kind": "isp-refine", **parameters["isp_refine"]})
    return expand_points(SCENARIO_ID, parameters["seed"], points)


def run_point(point: Mapping[str, object], seed: int) -> Dict[str, object]:
    if point["kind"] == "isp-refine":
        return run_isp_refine_point(point, seed)
    return run_anneal_pair(
        int(point["size"]),
        str(point["objective"]),
        int(point["iterations"]),
        seed,
        audit=True,
    )


def aggregate(records: List[TaskRecord]) -> Tables:
    payloads = [record.payload for record in records]
    return {
        "main": [row for row in payloads if row["kind"] == "anneal"],
        "isp_refine": [row for row in payloads if row["kind"] == "isp-refine"],
    }


def check(tables: Tables, smoke: bool) -> None:
    assert tables["main"], "E10 expanded no annealing tasks"
    for row in tables["main"]:
        assert row["scores_equal"], row
        assert row["identical_edges"], row
        assert row["baseline_accepted"] == row["incremental_accepted"], row
        # O(Δ) claim: the move run performs exactly one full evaluation
        # (the initial rebuild) and thousands of delta evaluations.
        assert row["incremental_full_evals"] <= 2, row
        assert row["delta_evals"] >= 50 * max(1, row["incremental_full_evals"]), row
        assert row["audited_moves"] > 0, row
    for row in tables["isp_refine"]:
        assert row["improved"], row
        assert row["accepted_moves"] >= 1, row


SUITE = register_suite(
    ExperimentSuite(
        scenario_id=SCENARIO_ID,
        title="Incremental delta-cost evaluation for local search",
        claim=(
            "Supplementary: simulated annealing over typed topology moves with "
            "incremental objective evaluation reproduces the copy-based search "
            "trajectory (score-identical best designs) at a fraction of the "
            "per-candidate cost."
        ),
        parameters={
            "seed": 43,
            "sizes": [400, 2000],
            "objectives": ["cost", "profit"],
            "anneal_iterations": 1200,
            "isp_refine": {
                "num_cities": 10,
                "feeder_algorithm": "star",
                "refine_iterations": 400,
            },
        },
        smoke={"sizes": [250], "anneal_iterations": 400},
        expand=expand,
        run_point=run_point,
        aggregate=aggregate,
        check=check,
    )
)
