"""Temporal traffic engine: time-indexed demand, diff routing, and cascades.

The paper evaluates a topology through the traffic it carries under
shortest-path routing; this module extends that evaluation along a **time
axis**.  A :class:`DemandSeries` is an ordered sequence of
:class:`~repro.geography.demand.DemandMatrix` steps (diurnal load curves,
flash crowds); :func:`route_series` routes the whole sequence through the
batched engine of :mod:`repro.routing.engine`, and :func:`failure_cascade`
iterates route → overload → trip → re-route to a fixed point on a
capacity-provisioned topology.

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
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..geography.demand import DemandMatrix
from ..topology.compiled import (
    BATCH_CHUNK_CELLS,
    CompiledGraph,
    KERNEL_COUNTERS,
    _column_min,
    dijkstra_indices,
    have_numpy_backend,
    resolve_backend,
)
from ..topology.graph import Topology, TopologyError
from .engine import (
    CompiledDemand,
    compile_demand,
    _scatter_ecmp,
    _scatter_tree,
)
from .options import RoutingOptions
from .paths import resolve_weight

if have_numpy_backend():
    import numpy as _np
    from scipy.sparse.csgraph import dijkstra as _scipy_dijkstra
else:  # pragma: no cover - exercised by the no-scipy CI leg
    _np = None
    _scipy_dijkstra = None

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
                f"DemandSeries has {len(self.steps)} steps but "
                f"{len(self.labels)} labels"
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
        raise ValueError(
            f"diurnal_series needs 0 <= amplitude < 1, got {amplitude}"
        )
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
        raise ValueError(
            f"flash_crowd needs 1 <= duration <= num_steps, got {duration}"
        )
    if spike <= 0:
        raise ValueError(f"flash_crowd needs spike > 0, got {spike}")
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
    windows = {
        hotspot: rng.randrange(0, num_steps - duration + 1) for hotspot in hotspots
    }
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
    order across steps, oriented once (toward the endpoint shared by more
    union pairs — the :func:`~repro.routing.engine.compile_demand` rule
    applied to the union).  One shared orientation is what makes per-source
    columns retainable across steps: a pair that flipped orientation between
    steps would silently move between source groups.

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
    def num_steps(self) -> int:
        """Number of time steps."""
        return len(self.step_volumes)

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
    endpoint_map = endpoint_map or {}
    graph = topology.compiled()
    index_of = graph.index_of
    union: Dict[Tuple[str, str], Tuple[Optional[int], Optional[int]]] = {}
    for matrix in series.steps:
        for a, b, _volume in matrix.pairs():
            if (a, b) not in union:
                union[(a, b)] = (
                    index_of.get(endpoint_map.get(a, a)),
                    index_of.get(endpoint_map.get(b, b)),
                )
    matched: List[Tuple[int, int, Tuple[str, str]]] = []
    unmatched_labels: List[Tuple[str, str]] = []
    frequency: Dict[int, int] = {}
    for label, (source, target) in union.items():
        if source is None or target is None:
            unmatched_labels.append(label)
            continue
        matched.append((source, target, label))
        frequency[source] = frequency.get(source, 0) + 1
        frequency[target] = frequency.get(target, 0) + 1
    sources = array("q")
    targets = array("q")
    labels: List[Tuple[str, str]] = []
    for source, target, label in matched:
        if frequency[target] > frequency[source]:
            source, target = target, source
        sources.append(source)
        targets.append(target)
        labels.append(label)
    step_volumes = [
        array("d", (matrix.demand(a, b) for a, b in labels))
        for matrix in series.steps
    ]
    unmatched = [
        [
            (a, b, matrix.demand(a, b))
            for a, b in unmatched_labels
            if matrix.demand(a, b) > 0
        ]
        for matrix in series.steps
    ]
    return CompiledSeries(
        graph=graph,
        sources=sources,
        targets=targets,
        labels=labels,
        step_volumes=step_volumes,
        unmatched=unmatched,
    )


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class TemporalStepResult:
    """Edge-indexed routing result of one time step (or cascade round).

    Mirrors :class:`~repro.routing.engine.FlowResult` — including the
    :meth:`loads_for` consumer contract, so a step result feeds
    ``utilization_report`` / ``load_concentration`` / ``provision_topology``
    directly — plus the diff accounting of the temporal engine.

    Attributes:
        graph: The compiled snapshot the loads are aligned with.
        step: Time-step (or cascade-round) index.
        edge_loads: Load per undirected edge index.
        routed_volume: Volume that found a path at this step.
        routed_pairs: Pairs (with positive volume) that found a path.
        unrouted: ``(a, b, volume)`` for unmatched or disconnected pairs.
        resolved_sources: Sources re-resolved at this step (the diff size).
        mode: ``"single"`` or ``"ecmp"``.
    """

    graph: CompiledGraph
    step: int
    edge_loads: Any
    routed_volume: float
    routed_pairs: int
    unrouted: List[Tuple[str, str, float]]
    resolved_sources: int
    mode: str

    @property
    def unrouted_volume(self) -> float:
        """Total volume that could not be routed (shed demand included)."""
        return sum(volume for _, _, volume in self.unrouted)

    @property
    def served_fraction(self) -> float:
        """Routed volume over offered volume (1.0 when nothing was offered)."""
        offered = self.routed_volume + self.unrouted_volume
        if offered <= 0:
            return 1.0
        return self.routed_volume / offered

    def loads_list(self) -> List[float]:
        """The edge load column as a plain Python float list."""
        return self.edge_loads.tolist()

    def link_loads(self) -> Dict[Tuple[Any, Any], float]:
        """Boundary conversion: loaded edges as a canonical-key dictionary."""
        edge_keys = self.graph.edge_keys
        return {
            edge_keys[e]: load
            for e, load in enumerate(self.loads_list())
            if load != 0.0
        }

    def max_load(self) -> float:
        """Largest per-edge load (0.0 on an edgeless graph)."""
        if not len(self.edge_loads):
            return 0.0
        if _np is not None and isinstance(self.edge_loads, _np.ndarray):
            return float(self.edge_loads.max())
        return max(self.edge_loads)

    def load_hash(self) -> str:
        """SHA-256 of the load column bytes — the determinism fingerprint.

        Bit-identical columns (the backend/serial-parallel contract on
        tie-free integral instances) hash identically; any float divergence
        is loud.
        """
        return hashlib.sha256(array("d", self.edge_loads).tobytes()).hexdigest()

    def overloaded_edges(self, capacities: Sequence[Optional[float]]) -> List[int]:
        """Edge indices whose load exceeds the aligned capacity column.

        ``None`` capacities mean unbounded and never overload; the comparison
        uses the cascade's :data:`TRIP_TOLERANCE`.
        """
        loads = self.edge_loads
        if len(capacities) != len(loads):
            raise ValueError(
                f"capacities column has {len(capacities)} entries for "
                f"{len(loads)} edges"
            )
        return [
            e
            for e, capacity in enumerate(capacities)
            if capacity is not None and loads[e] > capacity + TRIP_TOLERANCE
        ]

    def loads_for(self, topology: Topology) -> Any:
        """The load column, validated against ``topology``'s current snapshot.

        Same contract as :meth:`repro.routing.engine.FlowResult.loads_for`:
        a stale snapshot raises :class:`~repro.topology.graph.TopologyError`
        instead of silently repricing against a reindexed graph.
        """
        graph = topology.compiled()
        if graph is not self.graph:
            raise TopologyError(
                f"stale step result: routed against snapshot version "
                f"{self.graph.version}, but topology {topology.name!r} now "
                f"compiles to version {graph.version} — re-route the series "
                f"instead of repricing a stale load column"
            )
        return self.edge_loads


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

    def overload_counts(self, capacities: Sequence[Optional[float]]) -> List[int]:
        """Per-step count of overloaded edges against one capacity column."""
        return [len(step.overloaded_edges(capacities)) for step in self.steps]


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
    weight: Optional[str] = None,
    mode: Optional[str] = None,
    backend: Optional[str] = None,
    *,
    options: Optional[RoutingOptions] = None,
    endpoint_map: Optional[Dict[str, Any]] = None,
    reuse: bool = True,
) -> TemporalFlowResult:
    """Route a demand series step by step, re-resolving only changed sources.

    Two calling forms, mirroring :func:`~repro.routing.engine.route_demand`:
    ``route_series(topology, demand_series, ...)`` compiles and routes in one
    call, and ``route_series(compiled_series, ...)`` takes a pre-compiled
    :class:`CompiledSeries` (also accepted as the second argument next to its
    topology, validated against the current snapshot).

    Switches follow the façade vocabulary
    (:class:`~repro.routing.options.RoutingOptions`); the temporal engine is
    a flat-engine consumer, so ``method`` must be ``"auto"`` or ``"flat"``.
    ``reuse=False`` disables the diff and re-resolves every source at every
    step — bit-identical to the diff path by the fresh-summation contract
    (see the module docstring), which is exactly what the benchmark and the
    property tests gate.
    """
    opts = RoutingOptions.normalize(
        options, weight=weight, mode=mode, method=None, backend=backend
    )
    if opts.method not in ("auto", "flat"):
        raise ValueError(
            f"temporal routing supports method='flat' only (the per-source "
            f"diff needs per-source scatter), got method={opts.method!r}"
        )
    compiled = _resolve_series(topology, series, endpoint_map)
    return _route_series_compiled(compiled, opts, reuse)


def _resolve_series(
    topology: Any, series: Any, endpoint_map: Optional[Dict[str, Any]]
) -> CompiledSeries:
    """Normalize ``route_series``'s two calling forms to a CompiledSeries."""
    if isinstance(topology, CompiledSeries):
        if series is not None:
            raise TypeError(
                "route_series(compiled_series) takes no second series "
                "argument; use route_series(topology, series) to compile "
                "and route in one call"
            )
        if endpoint_map is not None:
            raise TypeError(
                "endpoint_map only applies when route_series compiles a "
                "DemandSeries; this series is already compiled"
            )
        return topology
    if isinstance(topology, Topology):
        if isinstance(series, CompiledSeries):
            if endpoint_map is not None:
                raise TypeError(
                    "endpoint_map only applies when route_series compiles a "
                    "DemandSeries; this series is already compiled"
                )
            graph = topology.compiled()
            if series.graph is not graph:
                raise TopologyError(
                    f"stale CompiledSeries: compiled against snapshot version "
                    f"{series.graph.version}, but topology {topology.name!r} "
                    f"now compiles to version {graph.version} — recompile "
                    f"with compile_series()"
                )
            return series
        if isinstance(series, DemandSeries):
            return compile_series(topology, series, endpoint_map)
        raise TypeError(
            f"route_series(topology, series) needs a DemandSeries or "
            f"CompiledSeries, got {type(series).__name__}"
        )
    raise TypeError(
        f"route_series expects a Topology or CompiledSeries first, "
        f"got {type(topology).__name__}"
    )


def _route_series_compiled(
    compiled: CompiledSeries, opts: RoutingOptions, reuse: bool
) -> TemporalFlowResult:
    graph = compiled.graph
    weights = graph.edge_weight_column(opts.weight, resolve_weight(opts.weight))
    use_numpy = _select_backend(graph, weights, opts)
    groups = _pair_groups(compiled.sources)
    columns: Dict[int, Any] = {}
    stats: Dict[int, Tuple[float, int, List[Tuple[str, str, float]]]] = {}
    steps: List[TemporalStepResult] = []
    previous: Optional[array] = None
    sources = compiled.sources
    for t, volumes in enumerate(compiled.step_volumes):
        if previous is None or not reuse:
            changed = list(groups)
        else:
            moved = {
                sources[p]
                for p in range(len(volumes))
                if volumes[p] != previous[p]
            }
            changed = [source for source in groups if source in moved]
        KERNEL_COUNTERS.temporal_steps += 1
        KERNEL_COUNTERS.temporal_resolved_sources += len(changed)
        _resolve_sources(
            graph,
            weights,
            opts.mode,
            use_numpy,
            groups,
            compiled.targets,
            volumes,
            compiled.labels,
            changed,
            columns,
            stats,
        )
        total, routed_volume, routed_pairs, unrouted = _combine(
            graph, use_numpy, groups, columns, stats, compiled.unmatched[t]
        )
        steps.append(
            TemporalStepResult(
                graph=graph,
                step=t,
                edge_loads=total,
                routed_volume=routed_volume,
                routed_pairs=routed_pairs,
                unrouted=unrouted,
                resolved_sources=len(changed),
                mode=opts.mode,
            )
        )
        previous = volumes
    return TemporalFlowResult(graph=graph, mode=opts.mode, steps=steps)


def _select_backend(
    graph: CompiledGraph, weights: Any, opts: RoutingOptions
) -> bool:
    """Shared backend dispatch: True for the numpy path, False for Python.

    Same rules as the flat engine: ECMP and the numpy path require strictly
    positive weights; ``backend="auto"`` falls back to Python on nonpositive
    columns while an explicit ``backend="numpy"`` raises.
    """
    positive = graph.num_edges == 0 or _column_min(weights) > 0
    if opts.mode == "ecmp" and not positive:
        raise ValueError("ECMP routing requires strictly positive weights")
    if resolve_backend(opts.backend) == "numpy" and graph.num_edges > 0:
        if positive:
            return True
        if opts.backend == "numpy":
            raise ValueError(
                "backend='numpy' routing requires strictly positive weights"
            )
    return False


def _pair_groups(sources: array) -> Dict[int, List[int]]:
    """Group union-pair positions by oriented source, first-appearance order."""
    groups: Dict[int, List[int]] = {}
    for position, source in enumerate(sources):
        groups.setdefault(source, []).append(position)
    return groups


def _resolve_sources(
    graph: CompiledGraph,
    weights: Any,
    mode: str,
    use_numpy: bool,
    groups: Dict[int, List[int]],
    targets: array,
    volumes: array,
    labels: List[Tuple[str, str]],
    changed: List[int],
    columns: Dict[int, Any],
    stats: Dict[int, Tuple[float, int, List[Tuple[str, str, float]]]],
) -> None:
    """Re-route every source in ``changed``; update its retained column.

    A source's column is ``None`` when it carries no flow (all volumes zero,
    or every positive-volume target unreachable) — the combine step treats
    ``None`` as an all-zero column without paying the addition.
    """
    if use_numpy:
        _resolve_sources_numpy(
            graph, weights, mode, groups, targets, volumes, labels, changed,
            columns, stats,
        )
        return
    n = graph.num_nodes
    for source in changed:
        positions = groups[source]
        active = [p for p in positions if volumes[p] > 0.0]
        if not active:
            columns[source] = None
            stats[source] = (0.0, 0, [])
            continue
        dist, pred, pred_edge = dijkstra_indices(graph, source, weights)
        KERNEL_COUNTERS.traffic_batched_sources += 1
        node_flow = array("d", [0.0]) * n
        group_volume = 0.0
        group_pairs = 0
        unrouted: List[Tuple[str, str, float]] = []
        for p in active:
            target = targets[p]
            volume = volumes[p]
            if dist[target] == inf:
                unrouted.append((*labels[p], volume))
                continue
            node_flow[target] += volume
            group_volume += volume
            group_pairs += 1
        KERNEL_COUNTERS.traffic_assigned_pairs += group_pairs
        if group_volume > 0.0:
            column = array("d", [0.0]) * graph.num_edges
            if mode == "single":
                _scatter_tree(graph, source, pred, pred_edge, node_flow, column)
            else:
                _scatter_ecmp(graph, source, dist, weights, node_flow, column)
            columns[source] = column
        else:
            columns[source] = None
        stats[source] = (group_volume, group_pairs, unrouted)


def _resolve_sources_numpy(
    graph: CompiledGraph,
    weights: Any,
    mode: str,
    groups: Dict[int, List[int]],
    targets: array,
    volumes: array,
    labels: List[Tuple[str, str]],
    changed: List[int],
    columns: Dict[int, Any],
    stats: Dict[int, Tuple[float, int, List[Tuple[str, str, float]]]],
) -> None:
    """Numpy variant: batched ``csgraph`` searches, per-source scatter.

    Searches batch many sources per scipy call (the E12 chunking rule);
    scatter stays per-source because the diff engine retains per-source
    columns.  Counter accounting matches the flat engine's numpy path.
    """
    from .engine import _scatter_ecmp_numpy, _scatter_tree_numpy

    need = []
    for source in changed:
        if any(volumes[p] > 0.0 for p in groups[source]):
            need.append(source)
        else:
            columns[source] = None
            stats[source] = (0.0, 0, [])
    if not need:
        return
    n = graph.num_nodes
    matrix = graph.scipy_csr(weights)
    need_pred = mode == "single"
    chunk = max(1, BATCH_CHUNK_CELLS // max(1, n))
    order = sorted(need)
    for start in range(0, len(order), chunk):
        batch = order[start : start + chunk]
        KERNEL_COUNTERS.batch_dijkstra_calls += 1
        KERNEL_COUNTERS.batch_sources_total += len(batch)
        KERNEL_COUNTERS.traffic_batched_sources += len(batch)
        KERNEL_COUNTERS.single_source += len(batch)  # backend-independent count
        if need_pred:
            dist_rows, pred_rows = _scipy_dijkstra(
                matrix, directed=False, indices=batch, return_predecessors=True
            )
        else:
            dist_rows = _scipy_dijkstra(matrix, directed=False, indices=batch)
            pred_rows = None
        if dist_rows.ndim == 1:
            dist_rows = dist_rows[_np.newaxis, :]
            if pred_rows is not None:
                pred_rows = pred_rows[_np.newaxis, :]
        for k, source in enumerate(batch):
            dist = dist_rows[k]
            node_flow = _np.zeros(n, dtype=_np.float64)
            group_volume = 0.0
            group_pairs = 0
            unrouted: List[Tuple[str, str, float]] = []
            for p in groups[source]:
                volume = volumes[p]
                if volume <= 0.0:
                    continue
                target = targets[p]
                if not _np.isfinite(dist[target]):
                    unrouted.append((*labels[p], volume))
                    continue
                node_flow[target] += volume
                group_volume += volume
                group_pairs += 1
            KERNEL_COUNTERS.traffic_assigned_pairs += group_pairs
            if group_volume > 0.0:
                column = _np.zeros(graph.num_edges, dtype=_np.float64)
                if mode == "single":
                    _scatter_tree_numpy(
                        graph, source, dist, pred_rows[k], node_flow, column
                    )
                else:
                    _scatter_ecmp_numpy(
                        graph, source, dist, weights, node_flow, column
                    )
                columns[source] = column
            else:
                columns[source] = None
            stats[source] = (group_volume, group_pairs, unrouted)


def _combine(
    graph: CompiledGraph,
    use_numpy: bool,
    groups: Dict[int, List[int]],
    columns: Dict[int, Any],
    stats: Dict[int, Tuple[float, int, List[Tuple[str, str, float]]]],
    unmatched: List[Tuple[str, str, float]],
) -> Tuple[Any, float, int, List[Tuple[str, str, float]]]:
    """Sum retained per-source columns into one fresh total, in group order.

    The fixed summation order (compile-time first-appearance source order) is
    what makes step loads history-independent: the total is a pure function
    of the per-source columns, never of which sources were re-resolved when.
    Both backends add source columns in the identical element-wise sequence,
    so backend parity reduces to per-source column parity.
    """
    num_edges = graph.num_edges
    if use_numpy:
        total = _np.zeros(num_edges, dtype=_np.float64)
    else:
        total = array("d", [0.0]) * num_edges
    routed_volume = 0.0
    routed_pairs = 0
    unrouted = list(unmatched)
    for source in groups:
        group_volume, group_pairs, group_unrouted = stats[source]
        routed_volume += group_volume
        routed_pairs += group_pairs
        unrouted.extend(group_unrouted)
        column = columns[source]
        if column is None:
            continue
        if use_numpy:
            total += column
        else:
            for e in range(num_edges):
                total[e] += column[e]
    return total, routed_volume, routed_pairs, unrouted


# ----------------------------------------------------------------------
# Failure cascades
# ----------------------------------------------------------------------
def failure_cascade(
    topology: Topology,
    demand: Any,
    weight: Optional[str] = None,
    mode: Optional[str] = None,
    backend: Optional[str] = None,
    *,
    options: Optional[RoutingOptions] = None,
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
        headroom: Survivability slack — see the module docstring.
        max_rounds: Optional cap on routing rounds; hitting it returns
            ``fixed_point=False`` with the last round's trips unapplied.
        restore: Rewind the topology when done (default).

    Returns:
        A :class:`CascadeResult`; ``rounds[-1].flow`` is the fixed-point
        flow and ``served_fraction`` the survivability summary.
    """
    opts = RoutingOptions.normalize(
        options, weight=weight, mode=mode, method=None, backend=backend
    )
    if opts.method not in ("auto", "flat"):
        raise ValueError(
            f"failure_cascade supports method='flat' only (the per-source "
            f"diff needs per-source scatter), got method={opts.method!r}"
        )
    if headroom < 0:
        raise ValueError(f"headroom must be non-negative, got {headroom}")
    if max_rounds is not None and max_rounds < 1:
        raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
    if not isinstance(topology, Topology):
        raise TypeError(
            f"failure_cascade expects a Topology first, "
            f"got {type(topology).__name__}"
        )
    if isinstance(demand, CompiledDemand):
        if endpoint_map is not None:
            raise TypeError(
                "endpoint_map only applies when failure_cascade compiles a "
                "DemandMatrix; this demand is already compiled"
            )
        if demand.graph is not topology.compiled():
            raise TopologyError(
                f"stale CompiledDemand: compiled against snapshot version "
                f"{demand.graph.version}, but topology {topology.name!r} now "
                f"compiles to version {topology.compiled().version} — "
                f"recompile with compile_demand()"
            )
        compiled = demand
    elif hasattr(demand, "pairs"):
        compiled = compile_demand(topology, demand, endpoint_map)
    else:
        raise TypeError(
            f"failure_cascade(topology, demand) needs a DemandMatrix or "
            f"CompiledDemand, got {type(demand).__name__}"
        )

    # Lazy imports: optimization consumes routing results elsewhere, so the
    # move vocabulary is pulled in at call time to keep imports acyclic.
    from ..core.objectives import CostObjective
    from ..optimization.incremental import IncrementalState, RemoveLinks

    state = IncrementalState(topology, CostObjective())
    base_depth = state.undo_depth
    graph = compiled.graph
    groups = _pair_groups(compiled.sources)
    columns: Dict[int, Any] = {}
    stats: Dict[int, Tuple[float, int, List[Tuple[str, str, float]]]] = {}
    unmatched = [
        (a, b, volume)
        for a, b, volume in compiled.unmatched
        if volume > 0
    ]
    to_resolve = list(groups)
    rounds: List[CascadeRound] = []
    fixed_point = True
    try:
        while True:
            weights = graph.edge_weight_column(
                opts.weight, resolve_weight(opts.weight)
            )
            use_numpy = _select_backend(graph, weights, opts)
            KERNEL_COUNTERS.temporal_steps += 1
            KERNEL_COUNTERS.temporal_resolved_sources += len(to_resolve)
            _resolve_sources(
                graph,
                weights,
                opts.mode,
                use_numpy,
                groups,
                compiled.targets,
                compiled.volumes,
                compiled.labels,
                to_resolve,
                columns,
                stats,
            )
            total, routed_volume, routed_pairs, unrouted = _combine(
                graph, use_numpy, groups, columns, stats, unmatched
            )
            capacities = [link.capacity for link in graph.links]
            tripped_edges = [
                e
                for e, capacity in enumerate(capacities)
                if capacity is not None
                and total[e] > capacity * (1.0 + headroom) + TRIP_TOLERANCE
            ]
            tripped_keys = [graph.edge_keys[e] for e in tripped_edges]
            flow = TemporalStepResult(
                graph=graph,
                step=len(rounds),
                edge_loads=total,
                routed_volume=routed_volume,
                routed_pairs=routed_pairs,
                unrouted=unrouted,
                resolved_sources=len(to_resolve),
                mode=opts.mode,
            )
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
            to_resolve = _affected_sources(groups, columns, tripped_edges)
            new_graph = topology.compiled()
            _remap_columns(columns, graph, new_graph, skip=set(to_resolve))
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
    columns: Dict[int, Any],
    tripped_edges: List[int],
) -> List[int]:
    """Sources with nonzero retained flow on any tripped edge, group order."""
    affected = []
    for source in groups:
        column = columns[source]
        if column is None:
            continue
        if any(column[e] != 0.0 for e in tripped_edges):
            affected.append(source)
    return affected


def _remap_columns(
    columns: Dict[int, Any],
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
    new_keys = new_graph.edge_keys
    gather = [old_index[key] for key in new_keys]
    use_numpy_gather = _np is not None
    gather_array = (
        _np.asarray(gather, dtype=_np.int64) if use_numpy_gather else None
    )
    for source, column in columns.items():
        if column is None or source in skip:
            continue
        if use_numpy_gather and isinstance(column, _np.ndarray):
            columns[source] = column[gather_array]
        else:
            columns[source] = array("d", (column[e] for e in gather))
