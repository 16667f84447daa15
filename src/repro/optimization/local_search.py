"""Move-based local search and simulated annealing.

The paper argues that real topologies are *approximately* optimal solutions
found by designers under constraints.  The generators therefore need generic
approximate optimizers for the problems that are NP-hard (buy-at-bulk, access
design): this module provides a hill climber and a simulated annealer, used
by the design-refinement passes and by the ablation benchmarks.

Every search takes a proposal function: ``propose(state, rng)`` returns a
typed :class:`~repro.optimization.incremental.Move`, the state applies it in
O(Δ), and rejected moves are reverted bit-exactly.  The best solution is recovered
by rolling the undo stack back to the best-scoring depth — no topology is
ever copied.

Each search draws from ``rng`` in a fixed order (one proposal per iteration,
one acceptance draw for uphill annealing moves only), so a copy-based search
that draws the same way follows the same trajectory — the property E10's
copy-based baseline (``copy_based_annealing`` in
:mod:`repro.experiments.suites.e10_local_search`) gates.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..topology.graph import Topology, TopologyError
from .incremental import Move

#: A move proposal: returns the next candidate move, or ``None`` when no
#: feasible move exists in this neighborhood draw (counted as a rejection).
MoveProposal = Callable[["MoveState", random.Random], Optional[Move]]


class MoveState:
    """Structural protocol for move-based search state (duck-typed).

    :class:`repro.optimization.incremental.IncrementalState` is the canonical
    implementation; anything exposing ``score``, ``apply``, ``revert``,
    ``undo_depth``, ``revert_to`` and ``topology`` works.
    """

    score: float
    topology: Topology

    def apply(self, move: Move) -> float:  # pragma: no cover - protocol only
        raise NotImplementedError

    def revert(self, move: Optional[Move] = None) -> None:  # pragma: no cover
        raise NotImplementedError

    def revert_to(self, depth: int) -> None:  # pragma: no cover
        raise NotImplementedError


@dataclass
class SearchResult:
    """Outcome of a local-search run.

    Attributes:
        best_solution: The best solution encountered.
        best_cost: Its cost.
        iterations: Number of iterations performed.
        accepted_moves: Number of accepted (improving or annealing) moves.
        history: Cost of the incumbent after each iteration (for convergence
            plots in the benchmarks).
    """

    best_solution: Topology
    best_cost: float
    iterations: int
    accepted_moves: int
    history: List[float] = field(default_factory=list)


@dataclass
class AnnealingSchedule:
    """Geometric cooling schedule for simulated annealing.

    Attributes:
        initial_temperature: Starting temperature.
        cooling_rate: Multiplicative factor applied after every iteration
            (must be in (0, 1)).
        min_temperature: Temperature at which the search stops.
    """

    initial_temperature: float = 1.0
    cooling_rate: float = 0.995
    min_temperature: float = 1e-4

    def __post_init__(self) -> None:
        if not 0 < self.initial_temperature < math.inf:
            raise ValueError(
                f"initial_temperature must be positive and finite, got {self.initial_temperature}"
            )
        if not 0 < self.cooling_rate < 1:
            raise ValueError(f"cooling_rate must be in (0, 1), got {self.cooling_rate}")
        if not 0 < self.min_temperature < math.inf:
            raise ValueError(
                f"min_temperature must be positive and finite, got {self.min_temperature}"
            )

    def temperatures(self, max_steps: int) -> List[float]:
        """The sequence of temperatures visited (capped at ``max_steps``)."""
        temps = []
        t = self.initial_temperature
        while t > self.min_temperature and len(temps) < max_steps:
            temps.append(t)
            t *= self.cooling_rate
        return temps


def hill_climb_moves(
    state: MoveState,
    propose: MoveProposal,
    max_iterations: int = 1000,
    patience: int = 100,
    rng: Optional[random.Random] = None,
) -> SearchResult:
    """First-improvement hill climbing over one in-place working topology.

    Each candidate is a typed move applied in O(Δ) through the incremental
    engine and reverted when it does not improve; the search stops after
    ``patience`` consecutive non-improving proposals.  ``best_solution`` is
    the state's topology, rolled back to the best depth (for pure descent
    that is always the final incumbent).
    """
    if max_iterations < 0 or patience < 0:
        raise ValueError("max_iterations and patience must be non-negative")
    rng = rng or random.Random()
    current = state.score
    best = current
    best_depth = state.undo_depth
    history = [current]
    stale = 0
    accepted = 0
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        move = propose(state, rng)
        delta = None
        if move is not None:
            try:
                delta = state.apply(move)
            except TopologyError:
                delta = None  # infeasible proposal; state unchanged
        if delta is not None and delta < 0:
            current = state.score
            accepted += 1
            stale = 0
            if current < best:
                best = current
                best_depth = state.undo_depth
        else:
            if delta is not None:
                state.revert(move)
            stale += 1
        history.append(current)
        if stale >= patience:
            break
    state.revert_to(best_depth)
    return SearchResult(
        best_solution=state.topology,
        best_cost=best,
        iterations=iterations,
        accepted_moves=accepted,
        history=history,
    )


def simulated_annealing_moves(
    state: MoveState,
    propose: MoveProposal,
    schedule: Optional[AnnealingSchedule] = None,
    max_iterations: int = 5000,
    rng: Optional[random.Random] = None,
) -> SearchResult:
    """Simulated annealing over one in-place working topology.

    Worse moves are accepted with probability ``exp(-delta / temperature)``,
    drawing ``rng.random()`` only when ``delta > 0``, so a copy-based search
    that mirrors the proposal function consumes the same random stream and
    follows the same trajectory.  At the end the undo stack is rolled back to
    the best-ever depth, so ``best_solution`` *is* the best topology visited.
    """
    rng = rng or random.Random()
    schedule = schedule or AnnealingSchedule()
    current = state.score
    best = current
    best_depth = state.undo_depth
    history = [current]
    accepted = 0
    temperatures = schedule.temperatures(max_iterations)
    for temperature in temperatures:
        move = propose(state, rng)
        if move is None:
            history.append(current)
            continue
        try:
            delta = state.apply(move)
        except TopologyError:
            history.append(current)
            continue
        if delta <= 0 or rng.random() < math.exp(-delta / temperature):
            current = state.score
            accepted += 1
            if current < best:
                best = current
                best_depth = state.undo_depth
        else:
            state.revert(move)
        history.append(current)
    state.revert_to(best_depth)
    return SearchResult(
        best_solution=state.topology,
        best_cost=best,
        iterations=len(temperatures),
        accepted_moves=accepted,
        history=history,
    )
