"""Incremental objective evaluation: O(Δ) delta-cost moves for local search.

The paper's Section 2.2 frames real networks as outcomes of cost minimization
/ profit maximization under demand.  Every design loop in this repository —
the hill climber and annealer in :mod:`repro.optimization.local_search`, the
ISP design iterations in :mod:`repro.core.isp`, the growth simulator in
:mod:`repro.core.evolution` — therefore spends its time asking "what would
this topology cost if I changed one thing?".  Recomputing
``CostObjective.evaluate`` from scratch makes each answer O(V + E) (and, before
this engine, O(V·(V+E)) with the per-core BFS loops); this module answers it
in O(Δ) for the common moves.

:class:`IncrementalState` owns one *working* topology and maintains, move by
move:

* the running cost (per-link install/usage contributions priced through
  :meth:`repro.core.objectives.CostObjective.link_contribution`, the same
  single source of truth the canonical ``evaluate`` uses, plus the node
  equipment costs of :data:`repro.core.objectives.NODE_COSTS`);
* the served-customer aggregates (served demand and served revenue) via the
  **fully-dynamic connectivity engine** of :mod:`repro.topology.dynconn` — a
  Holm–de Lichtenberg–Thorup level-structured spanning forest over Euler-tour
  trees whose per-component aggregates record whether the component contains
  a core and how much customer demand/revenue it holds.  Link and node
  additions are amortized O(log n) tree links, deletions are O(log n) for
  non-tree edges and a bounded replacement-edge search for tree edges, and
  every mutation returns an exact-undo token so rejected moves revert in
  O(log n).

Moves are first-class (:class:`AddLink`, :class:`RemoveLink`,
:class:`AddNode`, :class:`UpgradeCable`, :class:`Rewire`) with exact undo:
``apply(move)`` returns the score delta and pushes an undo record,
``revert()`` pops it and restores every scalar *by assignment* (not inverse
arithmetic), so a revert lands on bit-identical state.  A reverted removal
re-inserts the original link object at its old place in the topology's link
order (its insertion sequence number), so no move or undo copies the link
table: a rejected move costs what its forest operations cost.

When the engine falls back to full recomputation
------------------------------------------------

Only out-of-band topology edits (node demands, roles or link annotations
changed behind the engine's back) need
:meth:`IncrementalState.rebuild`, which is exactly one canonical full
evaluation.  When the structure did not change behind the engine's back
(``Topology.version`` is the one the engine last synced to), the rebuild
keeps the connectivity forest and only re-sets its vertex payloads, in
O(V + E).  Deletions never need a rebuild: ``RemoveLink``, the removal half
of a ``Rewire`` and each ``RemoveLinks`` batch are polylogarithmic
dynamic-forest deletions, and their undos replay the forest's exact-undo
tokens.

``KERNEL_COUNTERS.objective_full_evals`` counts canonical evaluations (and
rebuilds); ``KERNEL_COUNTERS.objective_delta_evals`` counts applied moves.
The E10 benchmark gate asserts delta evaluations dominate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.objectives import (
    NODE_COSTS,
    UNSERVED_PENALTY,
    CostObjective,
    ProfitObjective,
    revenue,
)
from ..topology.compiled import KERNEL_COUNTERS
from ..topology.dynconn import DynamicConnectivity
from ..topology.graph import Topology, TopologyError
from ..topology.link import Link, edge_key
from ..topology.node import NodeRole

__all__ = [
    "Move",
    "AddLink",
    "RemoveLink",
    "RemoveLinks",
    "AddNode",
    "UpgradeCable",
    "Rewire",
    "IncrementalState",
]


# ----------------------------------------------------------------------
# Move vocabulary
# ----------------------------------------------------------------------
class Move:
    """Base class of the typed move vocabulary.

    Moves are declarative: they carry *what* to change, and
    :class:`IncrementalState` carries *how* to price it and undo it.  A move
    that would violate a structural constraint (duplicate link, missing node,
    ``max_degree``) raises :class:`~repro.topology.graph.TopologyError` from
    ``apply`` without corrupting the state.
    """

    def _apply(self, state: "IncrementalState") -> "_UndoRecord":
        raise NotImplementedError


@dataclass(frozen=True)
class AddLink(Move):
    """Install a new link between two existing nodes.

    ``length=None`` derives the Euclidean length from the endpoint locations
    (the :meth:`Topology.add_link` rule).  Annotations follow
    :meth:`~repro.core.objectives.CostObjective.link_contribution`:
    explicitly priced links are charged their ``install_cost``/``usage_cost``;
    unannotated links fall back to the catalog envelope for their load and
    length.
    """

    u: Any
    v: Any
    capacity: Optional[float] = None
    length: Optional[float] = None
    cable: Optional[str] = None
    install_cost: float = 0.0
    usage_cost: float = 0.0
    load: float = 0.0

    def _apply(self, state: "IncrementalState") -> "_UndoRecord":
        record = state._snapshot(self)
        state._add_link_inner(
            record,
            self.u,
            self.v,
            capacity=self.capacity,
            length=self.length,
            cable=self.cable,
            install_cost=self.install_cost,
            usage_cost=self.usage_cost,
            load=self.load,
        )
        return record


@dataclass(frozen=True)
class RemoveLink(Move):
    """Tear out the link between ``u`` and ``v``.

    One polylog dynamic-forest deletion; the revert re-inserts the original
    :class:`~repro.topology.link.Link` object with its insertion sequence
    number, which puts it back at its old place in the topology's link and
    adjacency iteration order, so compiled edge order and order-dependent
    float sums are unchanged by a remove → revert round trip.  Neither step
    copies the link table.
    """

    u: Any
    v: Any

    def _apply(self, state: "IncrementalState") -> "_UndoRecord":
        record = state._snapshot(self)
        state._remove_links_inner(record, ((self.u, self.v),))
        return record


@dataclass(frozen=True)
class RemoveLinks(Move):
    """Tear out a batch of links as **one** move with one undo record.

    Failure cascades (:func:`repro.routing.temporal.failure_cascade`) trip
    many links per round; batching them puts the whole round on one undo
    record.  Removal order follows ``links`` order, one
    :meth:`IncrementalState.revert` restores the entire batch (each link at
    its old place in link order, as for :class:`RemoveLink`), and a missing
    or duplicated key raises :class:`~repro.topology.graph.TopologyError`
    before anything mutates.
    """

    links: Tuple[Tuple[Any, Any], ...]

    def _apply(self, state: "IncrementalState") -> "_UndoRecord":
        record = state._snapshot(self)
        state._remove_links_inner(record, self.links)
        return record


@dataclass(frozen=True)
class AddNode(Move):
    """Add a node, optionally attaching it to existing nodes.

    ``attach_to`` links are added unannotated (priced by the catalog envelope
    at zero load unless upgraded later); pass explicit :class:`AddLink` moves
    separately when the new links need annotations.
    """

    node_id: Any
    role: NodeRole = NodeRole.GENERIC
    location: Optional[Tuple[float, float]] = None
    demand: float = 0.0
    attach_to: Tuple[Any, ...] = ()

    def _apply(self, state: "IncrementalState") -> "_UndoRecord":
        record = state._snapshot(self)
        topology = state.topology
        node = topology.add_node(
            self.node_id, role=self.role, location=self.location, demand=self.demand
        )
        record.structure_undo.append(lambda: topology.remove_node(self.node_id))
        state._node_equipment += NODE_COSTS.get(node.role, 0.0)
        is_customer = self.role == NodeRole.CUSTOMER
        earned = state._revenue_of(node) if is_customer else 0.0
        state._dyn.add_vertex(
            self.node_id,
            is_core=self.role == NodeRole.CORE,
            demand=self.demand if is_customer else 0.0,
            revenue=earned,
        )
        record.structure_undo.append(lambda: state._dyn.remove_vertex(self.node_id))
        if is_customer:
            state._total_customer_demand += self.demand
            state._total_customer_revenue += earned
        try:
            for target in self.attach_to:
                state._add_link_inner(record, self.node_id, target)
        except TopologyError:
            state._unwind(record)
            raise
        return record


@dataclass(frozen=True)
class UpgradeCable(Move):
    """Re-provision a link's cable annotations in place (no structural change).

    ``None`` fields keep the link's current value.  This is the O(1) move:
    only the touched link's price is recomputed.
    """

    u: Any
    v: Any
    cable: Optional[str] = None
    capacity: Optional[float] = None
    install_cost: Optional[float] = None
    usage_cost: Optional[float] = None
    load: Optional[float] = None

    def _apply(self, state: "IncrementalState") -> "_UndoRecord":
        record = state._snapshot(self)
        link = state.topology.link(self.u, self.v)
        saved = (link.cable, link.capacity, link.install_cost, link.usage_cost, link.load)

        def restore(link=link, saved=saved):
            link.cable, link.capacity, link.install_cost, link.usage_cost, link.load = saved

        if self.cable is not None:
            link.cable = self.cable
        if self.capacity is not None:
            link.capacity = self.capacity
        if self.install_cost is not None:
            link.install_cost = self.install_cost
        if self.usage_cost is not None:
            link.usage_cost = self.usage_cost
        if self.load is not None:
            link.load = self.load
        record.structure_undo.append(restore)
        state._reprice_link(record, link)
        return record


@dataclass(frozen=True)
class Rewire(Move):
    """Move one of ``node``'s links from ``old_neighbor`` to ``new_neighbor``.

    The replacement link carries the old link's cable/capacity/load with its
    install and usage costs rescaled by the length ratio (a cable run moved to
    a different street), so rewiring toward a closer attachment point
    genuinely reduces cost.  Composite: one :class:`RemoveLink`-style
    deletion plus one addition.
    """

    node: Any
    old_neighbor: Any
    new_neighbor: Any

    def _apply(self, state: "IncrementalState") -> "_UndoRecord":
        record = state._snapshot(self)
        topology = state.topology
        old_link = topology.link(self.node, self.old_neighbor)
        if topology.has_link(self.node, self.new_neighbor):
            raise TopologyError(
                f"link {edge_key(self.node, self.new_neighbor)} already exists"
            )
        old_length = old_link.length
        loc_a = topology.node(self.node).location
        loc_b = topology.node(self.new_neighbor).location
        if loc_a is None or loc_b is None:
            new_length = 0.0
        else:
            # Same sqrt-of-squares form as Topology._euclidean_length, so the
            # explicit length is bit-identical to what add_link would derive.
            new_length = ((loc_a[0] - loc_b[0]) ** 2 + (loc_a[1] - loc_b[1]) ** 2) ** 0.5
        scale = (new_length / old_length) if old_length > 0 else 1.0
        try:
            state._remove_links_inner(record, ((self.node, self.old_neighbor),))
            state._add_link_inner(
                record,
                self.node,
                self.new_neighbor,
                capacity=old_link.capacity,
                length=new_length,
                cable=old_link.cable,
                install_cost=old_link.install_cost * scale,
                usage_cost=old_link.usage_cost * scale,
                load=old_link.load,
            )
        except TopologyError:
            state._unwind(record)
            raise
        return record


@dataclass
class _UndoRecord:
    """Everything needed to rewind one applied move bit-exactly."""

    move: Move
    scalars: Tuple[float, float, float, float, float, float, float]
    structure_undo: List[Callable[[], None]] = field(default_factory=list)


# ----------------------------------------------------------------------
# The incremental state
# ----------------------------------------------------------------------
class IncrementalState:
    """A working topology plus an incrementally maintained objective score.

    Args:
        topology: The topology the search mutates **in place**.
        objective: A :class:`~repro.core.objectives.CostObjective` or
            :class:`~repro.core.objectives.ProfitObjective`.

    Reachability lives in one fully-dynamic connectivity forest
    (:class:`~repro.topology.dynconn.DynamicConnectivity`), so additions and
    deletions alike are polylogarithmic with exact undo.

    The state assumes it is the only mutator while a search session runs:
    node demands, roles, and link annotations changed behind its back require
    a :meth:`rebuild`.  ``score`` matches ``objective.evaluate(topology)`` to
    float accumulation order (property-tested to 1e-9 relative tolerance).
    """

    def __init__(self, topology: Topology, objective: CostObjective) -> None:
        if not isinstance(objective, CostObjective):
            raise TypeError(
                f"IncrementalState prices CostObjective and ProfitObjective, got "
                f"{type(objective).__name__}"
            )
        self.topology = topology
        self.objective = objective
        self._profit = isinstance(objective, ProfitObjective)
        self._undo: List[_UndoRecord] = []
        self._dyn: Optional[DynamicConnectivity] = None
        # topology.version when the forest last mirrored the topology: after
        # rebuild(), apply() and every unwind.
        self._synced_version = -1
        self.rebuild()

    # -- construction / fallback ---------------------------------------
    def rebuild(self) -> None:
        """Resync every component with the topology (one canonical full eval).

        The running cost and the served aggregates are re-summed from the
        topology, and the undo stack is cleared.  The connectivity forest is
        built afresh only when the structure changed behind the state's back
        (``topology.version`` moved since the last rebuild, apply or revert);
        after annotation-only edits (demand growth, role changes, re-priced
        links) it keeps its trees and re-sets their vertex payloads in O(V + E).
        """
        KERNEL_COUNTERS.objective_full_evals += 1
        topology = self.topology
        self._link_install = 0.0
        self._link_usage = 0.0
        self._node_equipment = 0.0
        self._total_customer_demand = 0.0
        self._total_customer_revenue = 0.0
        self._link_contrib: Dict[Tuple[Any, Any], Tuple[float, float]] = {}
        objective = self.objective
        for link in topology.links():
            install, usage = objective.link_contribution(link)
            self._link_contrib[link.key] = (install, usage)
            self._link_install += install
            self._link_usage += usage
        for node in topology.nodes():
            self._node_equipment += NODE_COSTS.get(node.role, 0.0)
            if node.role == NodeRole.CUSTOMER:
                self._total_customer_demand += node.demand
                self._total_customer_revenue += self._revenue_of(node)
        self._rebuild_dynconn()
        self._undo.clear()
        self._synced_version = topology.version

    def _rebuild_dynconn(self) -> None:
        """Resync the dynamic-connectivity engine — O(V + E), no sweep.

        A structural change since the last sync bulk-builds a new forest;
        otherwise the kept forest re-sets its vertex payloads.  Either way the
        served aggregates are accumulated in a fixed canonical order
        (per-component naive float sums over nodes in insertion order,
        components summed in first-node order) instead of being read from the
        forest's correctly rounded component sums.  Pinned scores and
        trajectory hashes depend on these exact bits, so the order must not
        change.  Both paths list members in vertex insertion order, so they
        give the same bits.
        """
        topology = self.topology
        nodes = topology._nodes  # same-package structural access

        def payloads():
            for node_id, node in nodes.items():
                if node.role == NodeRole.CUSTOMER:
                    yield node_id, False, node.demand, self._revenue_of(node)
                else:
                    yield node_id, node.role == NodeRole.CORE, 0.0, 0.0

        dyn = self._dyn
        if dyn is not None and self._synced_version == topology.version:
            dyn.reset_payloads(payloads())
        else:
            dyn = DynamicConnectivity()
            dyn.build(payloads(), topology.link_keys())
            self._dyn = dyn
        comp_demand: Dict[Any, float] = {}
        comp_revenue: Dict[Any, float] = {}
        comp_core: Dict[Any, bool] = {}
        for root, members in dyn.components().items():
            demand = 0.0
            earned = 0.0
            has_core = False
            for node_id in members:
                node = nodes[node_id]
                if node.role == NodeRole.CUSTOMER:
                    demand += node.demand
                    earned += self._revenue_of(node)
                has_core = has_core or node.role == NodeRole.CORE
            comp_demand[root] = demand
            comp_revenue[root] = earned
            comp_core[root] = has_core
        served_demand = 0.0
        served_revenue = 0.0
        for root, has_core in comp_core.items():
            if has_core:
                served_demand += comp_demand[root]
                served_revenue += comp_revenue[root]
        self._served_demand = served_demand
        self._served_revenue = served_revenue

    def _revenue_of(self, node: Any) -> float:
        return revenue(node.demand) if self._profit else 0.0

    # -- scoring -------------------------------------------------------
    @property
    def score(self) -> float:
        """Current objective value of the working topology (lower is better)."""
        value = self._link_install + self._link_usage + self._node_equipment
        if self._profit:
            return value - self._served_revenue
        return value + UNSERVED_PENALTY * (self._total_customer_demand - self._served_demand)

    @property
    def install_cost(self) -> float:
        """Running total of per-link install contributions.

        For fully annotated topologies this is
        ``topology.total_install_cost()`` maintained incrementally — the
        growth simulator reads it per period instead of re-summing links.
        """
        return self._link_install

    @property
    def total_customer_demand(self) -> float:
        """Total demand of all customer nodes (served or not)."""
        return self._total_customer_demand

    @property
    def unserved_demand(self) -> float:
        """Demand of customers currently cut off from every core."""
        return self._total_customer_demand - self._served_demand

    @property
    def served_demand(self) -> float:
        """Demand of customers currently connected to a core."""
        return self._served_demand

    def is_served(self, node_id: Any) -> bool:
        """Whether ``node_id``'s component contains a core node."""
        return self._dyn.has_core_component(node_id)

    def verify(self, tolerance: float = 1e-9) -> float:
        """Assert the incremental score matches a canonical full evaluation.

        Returns the canonical score.  Used by property tests and the E10
        equality gates; costs one ``objective_full_evals``.
        """
        full = self.objective.evaluate(self.topology)
        incremental = self.score
        scale = max(1.0, abs(full))
        if abs(full - incremental) > tolerance * scale:
            raise AssertionError(
                f"incremental score {incremental!r} diverged from full "
                f"evaluation {full!r}"
            )
        return full

    # -- move application ----------------------------------------------
    @property
    def undo_depth(self) -> int:
        """Number of applied-but-not-reverted moves (for :meth:`revert_to`)."""
        return len(self._undo)

    def apply(self, move: Move) -> float:
        """Apply a move in place; returns ``score_after - score_before``.

        Raises :class:`~repro.topology.graph.TopologyError` (state unchanged)
        when the move is structurally infeasible.
        """
        before = self.score
        record = move._apply(self)
        self._undo.append(record)
        self._synced_version = self.topology.version
        KERNEL_COUNTERS.objective_delta_evals += 1
        return self.score - before

    def revert(self, move: Optional[Move] = None) -> None:
        """Undo the most recently applied move (LIFO only)."""
        if not self._undo:
            raise ValueError("no applied move to revert")
        record = self._undo[-1]
        if move is not None and record.move is not move:
            raise ValueError("revert must target the most recently applied move")
        self._undo.pop()
        self._unwind(record)

    def revert_to(self, depth: int) -> None:
        """Rewind until :attr:`undo_depth` equals ``depth``.

        This is how searches return the *best* solution without ever copying
        a topology: accepted moves stay on the undo stack, and the suffix past
        the best-so-far depth is rolled back at the end.
        """
        if depth < 0 or depth > len(self._undo):
            raise ValueError(f"cannot revert to depth {depth}")
        while len(self._undo) > depth:
            self._unwind(self._undo.pop())

    # -- internals -----------------------------------------------------
    def _snapshot(self, move: Move) -> _UndoRecord:
        return _UndoRecord(
            move=move,
            scalars=(
                self._link_install,
                self._link_usage,
                self._node_equipment,
                self._total_customer_demand,
                self._total_customer_revenue,
                self._served_demand,
                self._served_revenue,
            ),
        )

    def _unwind(self, record: _UndoRecord) -> None:
        for undo in reversed(record.structure_undo):
            undo()
        (
            self._link_install,
            self._link_usage,
            self._node_equipment,
            self._total_customer_demand,
            self._total_customer_revenue,
            self._served_demand,
            self._served_revenue,
        ) = record.scalars
        self._synced_version = self.topology.version

    def _add_link_inner(self, record: _UndoRecord, u: Any, v: Any, **link_kwargs) -> None:
        topology = self.topology
        link = topology.add_link(u, v, **link_kwargs)
        record.structure_undo.append(lambda: topology.remove_link(u, v))
        key = link.key
        old_contrib = self._link_contrib.get(key)
        install, usage = self.objective.link_contribution(link)
        self._link_contrib[key] = (install, usage)
        record.structure_undo.append(
            lambda: self._restore_contrib(key, old_contrib)
        )
        self._link_install += install
        self._link_usage += usage
        dyn = self._dyn
        if not dyn.connected(u, v):
            side_u = dyn.summary(u)
            side_v = dyn.summary(v)
            if side_u.has_core and not side_v.has_core:
                self._served_demand += side_v.demand
                self._served_revenue += side_v.revenue
            elif side_v.has_core and not side_u.has_core:
                self._served_demand += side_u.demand
                self._served_revenue += side_u.revenue
        token = dyn.insert(u, v)
        record.structure_undo.append(lambda: dyn.undo(token))

    def _remove_links_inner(
        self, record: _UndoRecord, pairs: Sequence[Tuple[Any, Any]]
    ) -> None:
        topology = self.topology
        # Validate the whole batch before mutating anything: a missing or
        # duplicated key must leave the state untouched.
        seen = set()
        links = []
        for u, v in pairs:
            link = topology.link(u, v)
            if link.key in seen:
                raise TopologyError(f"duplicate link {link.key} in RemoveLinks batch")
            seen.add(link.key)
            links.append(link)
        if not links:
            return
        dyn = self._dyn
        for link in links:
            topology.remove_link(link.source, link.target)
            # Re-insert the *original* Link object on revert: earlier undo
            # records (e.g. an UpgradeCable restore) hold references to it, so
            # replacing it with a copy would leave them mutating a dead object.
            # Its sequence number puts it back at its old place in link order,
            # so a remove → revert round trip leaves the compiled edge order
            # byte-identical, not just structurally identical.
            record.structure_undo.append(
                lambda link=link: topology._reinsert_link(link)
            )
            key = link.key
            old_contrib = self._link_contrib.pop(key, None)
            if old_contrib is not None:
                self._link_install -= old_contrib[0]
                self._link_usage -= old_contrib[1]
            record.structure_undo.append(
                lambda key=key, old=old_contrib: self._restore_contrib(key, old)
            )
            # Polylog deletion: query the doomed edge's component before the
            # cut, delete (non-tree: O(log n); tree: bounded replacement
            # search), and re-aggregate only when the component actually
            # split.  The undo token replays inverse tree ops, so a rejected
            # deletion reverts in O(log n) — no sweep, no O(V) snapshot.
            u, v = link.source, link.target
            before = dyn.summary(u)
            token = dyn.delete(u, v)
            record.structure_undo.append(lambda token=token: dyn.undo(token))
            if not dyn.connected(u, v):
                side_u = dyn.summary(u)
                side_v = dyn.summary(v)
                if before.has_core:
                    self._served_demand -= before.demand
                    self._served_revenue -= before.revenue
                    if side_u.has_core:
                        self._served_demand += side_u.demand
                        self._served_revenue += side_u.revenue
                    if side_v.has_core:
                        self._served_demand += side_v.demand
                        self._served_revenue += side_v.revenue

    def _restore_contrib(
        self, key: Tuple[Any, Any], old: Optional[Tuple[float, float]]
    ) -> None:
        if old is None:
            self._link_contrib.pop(key, None)
        else:
            self._link_contrib[key] = old

    def _reprice_link(self, record: _UndoRecord, link: Link) -> None:
        key = link.key
        old_contrib = self._link_contrib.get(key)
        if old_contrib is not None:
            self._link_install -= old_contrib[0]
            self._link_usage -= old_contrib[1]
        install, usage = self.objective.link_contribution(link)
        self._link_contrib[key] = (install, usage)
        record.structure_undo.append(lambda: self._restore_contrib(key, old_contrib))
        self._link_install += install
        self._link_usage += usage
