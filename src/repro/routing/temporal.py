"""Temporal traffic engine: time-indexed demand, diff routing, and cascades.

The paper evaluates a topology through the traffic it carries under
shortest-path routing; this module extends that evaluation along a **time
axis**.  A :class:`DemandSeries` is an ordered sequence of
:class:`~repro.geography.demand.DemandMatrix` steps (diurnal load curves,
flash crowds); :func:`route_series` routes the whole sequence through the
batched engine of :mod:`repro.routing.engine`, and :func:`failure_cascade`
iterates route → overload → trip → re-route to a fixed point on a
capacity-provisioned topology.

Both re-resolve sources through the engine's own per-source loop — the
search and scatter behind :func:`~repro.routing.engine.route_demand`, on
either backend — asking it for a fresh load column per source instead of
one shared column.  What this module adds is the bookkeeping around it: the
per-source diff, the fresh summation, and the trip rule.

The diff contract
-----------------

Routing every step from scratch repeats one shortest-path search per unique
source per step, even though consecutive steps of a realistic series differ
in only a few sources (a flash crowd touches its hotspots, everything else
carries yesterday's traffic).  :func:`compile_series` therefore compiles the
**union** of every step's pairs once, with one shared orientation, and
:func:`route_series` retains a **per-source load column** for every demand
source:

* At step ``t`` the engine diffs the step's per-pair volume column against
  step ``t-1`` and re-resolves only the sources whose volumes moved —
  one search + scatter per *changed* source
  (``KERNEL_COUNTERS.temporal_resolved_sources`` counts them, so benchmarks
  gate that the diff path actually engaged instead of assuming it).
* The step's total load column is then rebuilt **fresh** by summing the
  retained per-source columns in compile (first-appearance) source order.
  The sum is a pure function of the per-source columns — never an
  incremental ``+delta`` update — so a step's loads are independent of the
  *history* of which sources happened to be re-resolved, and
  ``route_series(..., reuse=False)`` (re-resolve everything, every step) is
  bit-identical to the diff path by construction.

Per-source columns are deterministic functions of (source, step volumes), so
backend parity is inherited from the engine scatter kernels: loads are
bit-identical across backends on tie-free weights with integral volumes, and
match a from-scratch ``route_demand`` of the step's matrix under the same
conditions (compilation may orient a pair from the opposite endpoint, which
on tie-free instances routes the identical unique shortest path).

The cascade trip rule
---------------------

:func:`failure_cascade` routes the full demand, then **trips** every link
whose load exceeds ``capacity * (1 + headroom)`` (a ``1e-9`` absolute
tolerance absorbs float accumulation; links without a finite capacity never
trip).  All overloaded links of a round trip *together*, in ascending edge
order — the deterministic batch becomes one
:class:`~repro.optimization.incremental.RemoveLinks` move, applied as
incremental deletions on the move engine's dynamic-connectivity structure
(:mod:`repro.topology.dynconn`) — one bounded replacement-edge search per
tripped tree edge, never a full reachability sweep.  Only the
sources that carried flow on a tripped link are re-routed (their retained
columns are the ones the removals invalidated; on tie-free instances every
other source's unique shortest paths are untouched, and in ECMP mode the
retained column covers *all* tied paths, so the nonzero-on-tripped test is
exact).  Rounds iterate until no link trips; demand whose targets become
unreachable is **shed** and shows up in the round's ``unrouted`` column.

Headroom semantics: ``headroom`` is survivability slack — the fraction of
extra capacity a link can absorb before tripping.  ``headroom=0.0`` trips at
the provisioned capacity; larger values resist the cascade, and the E13
suite sweeps it to map served fraction against slack.  The topology is
restored (``restore=True``) by rewinding the undo stack, so the cascade is
an analysis, not a mutation.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass, field
from math import inf, pi, sin
from random import Random
from types import SimpleNamespace
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..geography.demand import DemandMatrix
from ..topology.compiled import CompiledGraph, KERNEL_COUNTERS, have_numpy_backend
from ..topology.graph import Topology
from .engine import (
    CompiledDemand,
    FlowResult,
    _resolve_compiled,
    _route_sources,
    _select_backend,
    _source_groups,
    _SourceFlow,
    _tally,
    _zero_column,
    compile_demand,
)
from .options import RoutingOptions

if have_numpy_backend():
    import numpy as _np
else:  # pragma: no cover - exercised by the no-scipy CI leg
    _np = None

__all__ = [
    "CascadeResult",
    "CascadeRound",
    "CompiledSeries",
    "DemandSeries",
    "TemporalFlowResult",
    "TemporalStepResult",
    "compile_series",
    "diurnal_series",
    "failure_cascade",
    "flash_crowd",
    "route_series",
]

#: Absolute tolerance of the cascade trip rule (absorbs float accumulation).
TRIP_TOLERANCE = 1e-9


# ----------------------------------------------------------------------
# The time-indexed demand layer
# ----------------------------------------------------------------------
@dataclass
class DemandSeries:
    """An ordered sequence of demand matrices — one per time step.

    Attributes:
        steps: The per-step :class:`~repro.geography.demand.DemandMatrix`
            objects, in time order.  Steps may share matrix objects (a flash
            crowd outside its spike window reuses the base matrix verbatim —
            the diff engine then re-resolves nothing).
        labels: Optional per-step labels (``t00``, ``t01``, ... by default).
    """

    steps: List[DemandMatrix]
    labels: Optional[List[str]] = None

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("DemandSeries needs at least one step")
        if self.labels is None:
            self.labels = [f"t{t:02d}" for t in range(len(self.steps))]
        elif len(self.labels) != len(self.steps):
            raise ValueError(
                f"DemandSeries has {len(self.steps)} steps but {len(self.labels)} labels"
            )

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[DemandMatrix]:
        return iter(self.steps)

    def __getitem__(self, index: int) -> DemandMatrix:
        return self.steps[index]


def diurnal_series(
    base: DemandMatrix,
    num_steps: int = 24,
    amplitude: float = 0.5,
    phase: float = 0.0,
) -> DemandSeries:
    """A sinusoidal diurnal load curve over a base matrix.

    Step ``t`` scales every demand of ``base`` by
    ``1 + amplitude * sin(2*pi*(t + phase)/num_steps)`` — a deterministic
    day/night cycle.  Every step changes every pair, so the diff engine
    re-resolves every source each step: the diurnal series is the temporal
    engine's *worst case* and the flash crowd its best.

    Args:
        base: The matrix carrying the mean load.
        num_steps: Steps per cycle (hours, by the default 24).
        amplitude: Peak-to-mean swing; must satisfy ``0 <= amplitude < 1`` so
            scaled volumes stay positive.
        phase: Fractional step offset of the peak.
    """
    if num_steps < 1:
        raise ValueError(f"diurnal_series needs num_steps >= 1, got {num_steps}")
    if not 0.0 <= amplitude < 1.0:
        raise ValueError(f"diurnal_series needs 0 <= amplitude < 1, got {amplitude}")
    # Written so that NaN fails.
    if not -inf < phase < inf:
        raise ValueError(f"diurnal_series needs a finite phase, got {phase}")
    steps = [
        base.scaled(1.0 + amplitude * sin(2.0 * pi * (t + phase) / num_steps))
        for t in range(num_steps)
    ]
    return DemandSeries(steps, labels=[f"h{t:02d}" for t in range(num_steps)])


def flash_crowd(
    base: DemandMatrix,
    num_steps: int = 12,
    num_hotspots: int = 2,
    spike: float = 8.0,
    duration: int = 3,
    seed: int = 0,
) -> DemandSeries:
    """Multiplicative demand spikes on sampled hotspot endpoints.

    ``num_hotspots`` endpoints are sampled (deterministically from ``seed``)
    among the endpoints that carry demand; each gets one spike window of
    ``duration`` consecutive steps, and inside the window every pair touching
    the hotspot is multiplied by ``spike``.  Steps outside every window reuse
    the ``base`` matrix object verbatim, so consecutive quiet steps diff to
    *zero* changed sources — the workload the diff engine exists for.  An
    integral ``spike`` over an integral base keeps volumes integral, which is
    what the bit-identity gates require.
    """
    if num_steps < 1:
        raise ValueError(f"flash_crowd needs num_steps >= 1, got {num_steps}")
    if not 1 <= duration <= num_steps:
        raise ValueError(f"flash_crowd needs 1 <= duration <= num_steps, got {duration}")
    # Written so that NaN fails.
    if not 0 < spike < inf:
        raise ValueError(f"flash_crowd needs a finite spike > 0, got {spike}")
    candidates = sorted({name for a, b, _v in base.pairs() for name in (a, b)})
    if not candidates:
        raise ValueError("flash_crowd needs a base matrix with positive demand")
    if not 1 <= num_hotspots <= len(candidates):
        raise ValueError(
            f"flash_crowd needs 1 <= num_hotspots <= {len(candidates)} "
            f"(endpoints with demand), got {num_hotspots}"
        )
    rng = Random(seed)
    hotspots = rng.sample(candidates, num_hotspots)
    windows = {hotspot: rng.randrange(0, num_steps - duration + 1) for hotspot in hotspots}
    steps: List[DemandMatrix] = []
    for t in range(num_steps):
        hot = {h for h, start in windows.items() if start <= t < start + duration}
        if not hot:
            steps.append(base)
            continue
        spiked = DemandMatrix(endpoints=list(base.endpoints))
        for a, b, volume in base.pairs():
            factor = spike if (a in hot or b in hot) else 1.0
            spiked.set_demand(a, b, volume * factor)
        steps.append(spiked)
    return DemandSeries(steps)


# ----------------------------------------------------------------------
# Series compilation: one union orientation, per-step volume columns
# ----------------------------------------------------------------------
@dataclass
class CompiledSeries:
    """A demand series compiled against one compiled-graph snapshot.

    The pair list is the **union** of every step's pairs, in first-appearance
    order across steps, compiled once through
    :func:`~repro.routing.engine.compile_demand` — so it is oriented once,
    toward the endpoint shared by more union pairs.  One shared orientation
    is what makes per-source columns retainable across steps: a pair that
    flipped orientation between steps would silently move between source
    groups.

    Attributes:
        graph: The compiled topology snapshot the indices refer to.
        sources: Oriented source node index per union pair.
        targets: Oriented target node index per union pair.
        labels: Original ``(a, b)`` endpoint names per union pair.
        step_volumes: One ``array('d')`` per step, aligned with the union
            pair list (zero where a pair is absent from the step).
        unmatched: Per step, the ``(a, b, volume)`` pairs whose endpoints are
            missing from the topology (positive volumes only).
    """

    graph: CompiledGraph
    sources: array
    targets: array
    labels: List[Tuple[str, str]]
    step_volumes: List[array]
    unmatched: List[List[Tuple[str, str, float]]] = field(default_factory=list)

    @property
    def num_pairs(self) -> int:
        """Number of union (routable-endpoint) pairs."""
        return len(self.sources)

    @property
    def unique_sources(self) -> int:
        """Number of distinct oriented demand sources."""
        return len(set(self.sources))


def compile_series(
    topology: Topology,
    series: DemandSeries,
    endpoint_map: Optional[Dict[str, Any]] = None,
) -> CompiledSeries:
    """Compile a demand series against ``topology.compiled()``.

    Endpoint-name resolution and pair orientation happen exactly once, over
    the union of every step's pairs; see :class:`CompiledSeries` for the
    layout.  Endpoints missing from the topology land in the per-step
    ``unmatched`` lists instead of raising, mirroring
    :func:`~repro.routing.engine.compile_demand`.
    """
    union = dict.fromkeys((a, b) for matrix in series.steps for a, b, _v in matrix.pairs())
    # compile_demand only iterates pairs(); the union's volumes are
    # placeholders, since each step keeps its own volume column.
    pairs = SimpleNamespace(pairs=lambda: ((a, b, 1.0) for a, b in union))
    compiled = compile_demand(topology, pairs, endpoint_map)
    step_volumes = [
        array("d", (matrix.demand(a, b) for a, b in compiled.labels)) for matrix in series.steps
    ]
    unmatched = [
        [(a, b, matrix.demand(a, b)) for a, b, _v in compiled.unmatched if matrix.demand(a, b) > 0]
        for matrix in series.steps
    ]
    return CompiledSeries(
        graph=compiled.graph,
        sources=compiled.sources,
        targets=compiled.targets,
        labels=compiled.labels,
        step_volumes=step_volumes,
        unmatched=unmatched,
    )


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class TemporalStepResult(FlowResult):
    """The :class:`~repro.routing.engine.FlowResult` of one time step (or cascade round).

    Everything of a flat routing result — the load column, the routed and
    unrouted accounting, and the :meth:`loads_for` consumer contract, so a
    step result feeds ``utilization_report`` / ``load_concentration`` /
    ``provision_topology`` directly — plus the diff accounting of the
    temporal engine.

    Attributes:
        step: Time-step (or cascade-round) index.
        resolved_sources: Sources re-resolved at this step (the diff size).
    """

    step: int
    resolved_sources: int

    _stale_name = "step result"

    @property
    def served_fraction(self) -> float:
        """Routed volume over offered volume (1.0 when nothing was offered)."""
        offered = self.routed_volume + self.unrouted_volume
        if offered <= 0:
            return 1.0
        return self.routed_volume / offered

    def load_hash(self) -> str:
        """SHA-256 of the load column bytes — the determinism fingerprint.

        Bit-identical columns (the backend/serial-parallel contract on
        tie-free integral instances) hash identically; any float divergence
        is loud.
        """
        return hashlib.sha256(array("d", self.edge_loads).tobytes()).hexdigest()


@dataclass
class TemporalFlowResult:
    """Result of routing a whole demand series.

    Attributes:
        graph: The compiled snapshot every step column is aligned with.
        mode: ``"single"`` or ``"ecmp"``.
        steps: One :class:`TemporalStepResult` per time step.
    """

    graph: CompiledGraph
    mode: str
    steps: List[TemporalStepResult]

    @property
    def num_steps(self) -> int:
        """Number of routed time steps."""
        return len(self.steps)

    @property
    def resolved_sources_total(self) -> int:
        """Total source re-resolutions across all steps (the diff work)."""
        return sum(step.resolved_sources for step in self.steps)

    def step_hashes(self) -> List[str]:
        """Per-step SHA-256 load-column fingerprints (determinism gates)."""
        return [step.load_hash() for step in self.steps]

    def served_fractions(self) -> List[float]:
        """Per-step served fraction (routed volume over offered volume)."""
        return [step.served_fraction for step in self.steps]


@dataclass
class CascadeRound:
    """One route → trip round of a failure cascade.

    Attributes:
        flow: The routing result of this round (loads in the round's own
            edge space — ``flow.graph`` is the degraded snapshot).
        tripped: Canonical keys of the links that exceeded the trip threshold
            this round, in ascending edge order.  Empty on the fixed-point
            round.
    """

    flow: TemporalStepResult
    tripped: List[Tuple[Any, Any]]


@dataclass
class CascadeResult:
    """Fixed point of a failure cascade.

    Attributes:
        rounds: Route → trip rounds, in order; the last round tripped
            nothing (unless ``max_rounds`` cut the cascade short).
        fixed_point: Whether the cascade converged (``False`` only when
            ``max_rounds`` stopped it with overloads still standing).
        headroom: The survivability slack the cascade ran with.
        mode: ``"single"`` or ``"ecmp"``.
    """

    rounds: List[CascadeRound]
    fixed_point: bool
    headroom: float
    mode: str

    @property
    def num_rounds(self) -> int:
        """Number of routing rounds (>= 1)."""
        return len(self.rounds)

    @property
    def total_trips(self) -> int:
        """Total links tripped across all rounds."""
        return sum(len(round_.tripped) for round_ in self.rounds)

    @property
    def tripped_keys(self) -> List[Tuple[Any, Any]]:
        """Every tripped link key, in trip order."""
        return [key for round_ in self.rounds for key in round_.tripped]

    @property
    def served_fraction(self) -> float:
        """Served fraction at the fixed point (the survivability summary)."""
        return self.rounds[-1].flow.served_fraction

    def step_hashes(self) -> List[str]:
        """Per-round SHA-256 load-column fingerprints (determinism gates)."""
        return [round_.flow.load_hash() for round_ in self.rounds]


# ----------------------------------------------------------------------
# The diff engine
# ----------------------------------------------------------------------
def route_series(
    topology: Any,
    series: Any = None,
    *,
    weight: Optional[str] = None,
    mode: str = "single",
    backend: str = "auto",
    endpoint_map: Optional[Dict[str, Any]] = None,
    reuse: bool = True,
) -> TemporalFlowResult:
    """Route a demand series step by step, re-resolving only changed sources.

    Two calling forms, mirroring :func:`~repro.routing.engine.route_demand`:
    ``route_series(topology, demand_series, ...)`` compiles and routes in one
    call, and ``route_series(compiled_series, ...)`` takes a pre-compiled
    :class:`CompiledSeries` (also accepted as the second argument next to its
    topology, validated against the current snapshot).

    Switches are keyword-only and follow the façade vocabulary
    (:class:`~repro.routing.options.RoutingOptions`); the temporal engine is
    a flat-engine consumer, so it takes no ``method``.  ``reuse=False``
    disables the diff and re-resolves every source at every step —
    bit-identical to the diff path by the fresh-summation contract (see the
    module docstring), which is exactly what the benchmark and the property
    tests gate.
    """
    opts = RoutingOptions(weight=weight, mode=mode, backend=backend)
    compiled = _resolve_compiled(
        "route_series", topology, series, endpoint_map, compile_series, CompiledSeries, DemandSeries
    )
    graph = compiled.graph
    weights = graph.edge_weight_column(opts.weight)
    use_numpy = _select_backend(graph, opts)
    sources = compiled.sources
    groups = _source_groups(sources)
    flows: Dict[int, _SourceFlow] = {}
    steps: List[TemporalStepResult] = []
    previous: Optional[array] = None
    for t, volumes in enumerate(compiled.step_volumes):
        if previous is None or not reuse:
            changed = list(groups)
        else:
            moved = {sources[p] for p in range(len(volumes)) if volumes[p] != previous[p]}
            changed = [source for source in groups if source in moved]
        KERNEL_COUNTERS.temporal_steps += 1
        KERNEL_COUNTERS.temporal_resolved_sources += len(changed)
        flows.update(
            _route_sources(
                graph,
                weights,
                opts.mode,
                use_numpy,
                changed,
                groups,
                compiled.targets,
                volumes,
                compiled.labels,
            )
        )
        unmatched = compiled.unmatched[t]
        steps.append(
            _combine(graph, use_numpy, opts.mode, groups, flows, unmatched, t, len(changed))
        )
        previous = volumes
    return TemporalFlowResult(graph=graph, mode=opts.mode, steps=steps)


def _combine(
    graph: CompiledGraph,
    use_numpy: bool,
    mode: str,
    groups: Dict[int, List[int]],
    flows: Dict[int, _SourceFlow],
    unmatched: List[Tuple[str, str, float]],
    step: int,
    resolved_sources: int,
) -> TemporalStepResult:
    """Sum retained per-source columns into one fresh total, in group order.

    The fixed summation order (compile-time first-appearance source order) is
    what makes step loads history-independent: the total is a pure function
    of the per-source columns, never of which sources were re-resolved when.
    Both backends add source columns in the identical element-wise sequence,
    so backend parity reduces to per-source column parity.
    """
    num_edges = graph.num_edges
    total = _zero_column(num_edges, use_numpy)
    for source in groups:
        column = flows[source].column
        if column is None:
            continue
        if use_numpy:
            total += column
        else:
            for e in range(num_edges):
                total[e] += column[e]
    routed_volume, routed_pairs, unrouted = _tally(groups, flows, unmatched)
    return TemporalStepResult(
        graph=graph,
        edge_loads=total,
        routed_volume=routed_volume,
        routed_pairs=routed_pairs,
        unrouted=unrouted,
        mode=mode,
        step=step,
        resolved_sources=resolved_sources,
    )


# ----------------------------------------------------------------------
# Failure cascades
# ----------------------------------------------------------------------
def failure_cascade(
    topology: Topology,
    demand: Any,
    *,
    weight: Optional[str] = None,
    mode: str = "single",
    backend: str = "auto",
    endpoint_map: Optional[Dict[str, Any]] = None,
    headroom: float = 0.0,
    max_rounds: Optional[int] = None,
    restore: bool = True,
) -> CascadeResult:
    """Iterate route → overload → trip → re-route to a fixed point.

    Each round routes the full demand (retained per-source columns — only
    the sources whose flow crossed a tripped link are re-routed), trips every
    link whose load exceeds ``capacity * (1 + headroom)`` in ascending edge
    order, removes the batch through one
    :class:`~repro.optimization.incremental.RemoveLinks` move (incremental
    deletions on the dynamic-connectivity engine, no reachability sweep),
    and recompiles the degraded graph.
    Links without a finite installed capacity (``link.capacity is None``)
    never trip — run :func:`~repro.economics.provisioning.provision_topology`
    first to install capacities.  The cascade terminates because every
    applying round removes at least one link; demand whose targets become
    unreachable is shed into the round's ``unrouted`` column.

    Args:
        topology: A capacity-provisioned topology.  Mutated during the
            cascade; rewound to its original structure before returning
            unless ``restore=False`` (the undo stack re-inserts the original
            ``Link`` objects, leaving the degraded state inspectable only
            through the per-round results).
        demand: A :class:`~repro.geography.demand.DemandMatrix` or a
            :class:`~repro.routing.engine.CompiledDemand` against the
            topology's current snapshot.
        weight, mode, backend: Routing switches, as for
            :func:`~repro.routing.engine.route_demand` (flat method only).
        headroom: Survivability slack — see the module docstring.
        max_rounds: Optional cap on routing rounds; hitting it returns
            ``fixed_point=False`` with the last round's trips unapplied.
        restore: Rewind the topology when done (default).

    Returns:
        A :class:`CascadeResult`; ``rounds[-1].flow`` is the fixed-point
        flow and ``served_fraction`` the survivability summary.
    """
    opts = RoutingOptions(weight=weight, mode=mode, backend=backend)
    # Written so that NaN fails: a NaN or infinite headroom would never trip a link.
    if not 0 <= headroom < inf:
        raise ValueError(f"headroom must be finite and non-negative, got {headroom}")
    if max_rounds is not None and max_rounds < 1:
        raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
    compiled = _resolve_compiled(
        "failure_cascade",
        topology,
        demand,
        endpoint_map,
        compile_demand,
        CompiledDemand,
        compiled_first=False,
    )

    # Lazy imports: optimization consumes routing results elsewhere, so the
    # move vocabulary is pulled in at call time to keep imports acyclic.
    from ..core.objectives import CostObjective
    from ..optimization.incremental import IncrementalState, RemoveLinks

    state = IncrementalState(topology, CostObjective())
    base_depth = state.undo_depth
    graph = compiled.graph
    groups = _source_groups(compiled.sources)
    flows: Dict[int, _SourceFlow] = {}
    unmatched = [(a, b, volume) for a, b, volume in compiled.unmatched if volume > 0]
    to_resolve = list(groups)
    rounds: List[CascadeRound] = []
    fixed_point = True
    try:
        while True:
            weights = graph.edge_weight_column(opts.weight)
            use_numpy = _select_backend(graph, opts)
            KERNEL_COUNTERS.temporal_steps += 1
            KERNEL_COUNTERS.temporal_resolved_sources += len(to_resolve)
            flows.update(
                _route_sources(
                    graph,
                    weights,
                    opts.mode,
                    use_numpy,
                    to_resolve,
                    groups,
                    compiled.targets,
                    compiled.volumes,
                    compiled.labels,
                )
            )
            flow = _combine(
                graph, use_numpy, opts.mode, groups, flows, unmatched, len(rounds), len(to_resolve)
            )
            loads = flow.edge_loads
            capacities = [link.capacity for link in graph.links]
            tripped_edges = [
                e
                for e, capacity in enumerate(capacities)
                if capacity is not None and loads[e] > capacity * (1.0 + headroom) + TRIP_TOLERANCE
            ]
            tripped_keys = [graph.edge_keys[e] for e in tripped_edges]
            rounds.append(CascadeRound(flow=flow, tripped=tripped_keys))
            if not tripped_edges:
                break
            if max_rounds is not None and len(rounds) >= max_rounds:
                fixed_point = False
                break
            KERNEL_COUNTERS.cascade_trips += len(tripped_edges)
            state.apply(RemoveLinks(tuple(tripped_keys)))
            # Only sources whose retained flow crossed a tripped link need a
            # re-route; everyone else's column survives the removals (exact
            # on tie-free instances; exact in ECMP mode because the column
            # covers all tied paths).
            to_resolve = _affected_sources(groups, flows, tripped_edges)
            new_graph = topology.compiled()
            _remap_columns(flows, graph, new_graph, skip=set(to_resolve))
            graph = new_graph
    finally:
        if restore:
            state.revert_to(base_depth)
    return CascadeResult(
        rounds=rounds,
        fixed_point=fixed_point,
        headroom=headroom,
        mode=opts.mode,
    )


def _affected_sources(
    groups: Dict[int, List[int]],
    flows: Dict[int, _SourceFlow],
    tripped_edges: List[int],
) -> List[int]:
    """Sources with nonzero retained flow on any tripped edge, group order."""
    affected = []
    for source in groups:
        column = flows[source].column
        if column is not None and any(column[e] != 0.0 for e in tripped_edges):
            affected.append(source)
    return affected


def _remap_columns(
    flows: Dict[int, _SourceFlow],
    old_graph: CompiledGraph,
    new_graph: CompiledGraph,
    skip: set,
) -> None:
    """Gather retained columns from the old edge space into the new one.

    Link removal preserves the relative order of surviving links, so the new
    edge list is a subsequence of the old one; the gather is a pure bit-copy
    (loads keep their exact float values).  Sources in ``skip`` are about to
    be re-resolved and need no remap.
    """
    old_index = {key: e for e, key in enumerate(old_graph.edge_keys)}
    gather = [old_index[key] for key in new_graph.edge_keys]
    gather_array = _np.asarray(gather, dtype=_np.int64) if _np is not None else None
    for source, flow in flows.items():
        column = flow.column
        if column is None or source in skip:
            continue
        if isinstance(column, array):
            column = array("d", (column[e] for e in gather))
        else:
            column = column[gather_array]
        flows[source] = flow._replace(column=column)
