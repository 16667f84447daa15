"""Property tests for repro.optimization.incremental.

The central contract: after any sequence of applied/reverted moves, the
incrementally maintained score equals the objective's canonical ``evaluate`` of
the working topology (to float accumulation order), and a full rollback
restores the starting score *bit-exactly*.
"""

import random

import pytest

from repro.core.objectives import CostObjective, ProfitObjective
from repro.optimization.incremental import (
    AddLink,
    AddNode,
    IncrementalState,
    RemoveLink,
    Rewire,
    UpgradeCable,
)
from repro.topology.compiled import KERNEL_COUNTERS
from repro.topology.graph import Topology, TopologyError
from repro.topology.node import NodeRole


def random_access_tree(seed: int = 0, size: int = 25) -> Topology:
    rng = random.Random(seed)
    topology = Topology(name="incremental-fixture")
    topology.add_node("core0", role=NodeRole.CORE, location=(0.5, 0.5))
    for i in range(size):
        topology.add_node(
            f"c{i}",
            role=NodeRole.CUSTOMER,
            location=(rng.random(), rng.random()),
            demand=rng.uniform(1.0, 5.0),
        )
        target = "core0" if i == 0 else f"c{rng.randrange(i)}"
        topology.add_link(
            f"c{i}",
            target,
            install_cost=rng.uniform(1.0, 3.0),
            usage_cost=0.1,
            load=rng.uniform(0.0, 2.0),
        )
    return topology


def random_move(topology: Topology, rng: random.Random, step: int):
    kind = rng.randrange(5)
    node_ids = [n.node_id for n in topology.nodes()]
    if kind == 0:
        u, v = rng.sample(node_ids, 2)
        if topology.has_link(u, v):
            return None
        return AddLink(u, v, install_cost=2.0, usage_cost=0.05, load=1.0)
    if kind == 1:
        link = rng.choice(list(topology.links()))
        return RemoveLink(link.source, link.target)
    if kind == 2:
        return AddNode(
            f"new{step}",
            role=NodeRole.CUSTOMER,
            location=(rng.random(), rng.random()),
            demand=3.0,
            attach_to=(rng.choice(node_ids),),
        )
    if kind == 3:
        link = rng.choice(list(topology.links()))
        return UpgradeCable(
            link.source, link.target, cable="OC-3", install_cost=5.0, usage_cost=0.01
        )
    leaves = [n for n in node_ids if topology.degree(n) == 1]
    if not leaves:
        return None
    node = rng.choice(leaves)
    old = topology.neighbors(node)[0]
    new = rng.choice([x for x in node_ids if x not in (node, old)])
    if topology.has_link(node, new):
        return None
    return Rewire(node, old, new)


OBJECTIVES = [
    ("cost", CostObjective),
    ("profit", ProfitObjective),
]


def link_order(topology: Topology):
    """Every order the undo contract keeps: link table, rows, compiled edges."""
    return (
        list(topology.link_keys()),
        {node_id: topology.neighbors(node_id) for node_id in topology.node_ids()},
        topology.compiled().edge_keys,
    )


class TestDeltaVsFullEquivalence:
    @pytest.mark.parametrize("name,make_objective", OBJECTIVES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_move_sequences(self, name, make_objective, seed):
        """apply/revert over random move sequences tracks the canonical score.

        Every revert also puts links back in their old order: the link table,
        each node's neighbor row and the compiled edge order equal their
        values before the matching apply.
        """
        topology = random_access_tree(seed)
        state = IncrementalState(topology, make_objective())
        start_score = state.score
        start_order = link_order(topology)
        rng = random.Random(seed)
        applied = 0
        for step in range(150):
            move = random_move(topology, rng, step)
            if move is None:
                continue
            order = link_order(topology)
            try:
                state.apply(move)
            except TopologyError:
                continue
            applied += 1
            state.verify()  # raises when delta and full evaluation diverge
            if rng.random() < 0.5:
                state.revert()
                state.verify()
                assert link_order(topology) == order
        assert applied > 30
        state.revert_to(0)
        state.verify()
        # Full rollback restores the starting score bit-exactly, not approximately.
        assert state.score == start_score
        assert link_order(topology) == start_order
        assert topology.validate() == []

    def test_apply_returns_score_delta(self):
        topology = random_access_tree(3)
        state = IncrementalState(topology, CostObjective())
        before = state.score
        delta = state.apply(UpgradeCable("c0", "core0", install_cost=50.0))
        assert state.score == pytest.approx(before + delta)

    def test_unknown_objective_rejected(self):
        class Custom:
            pass

        with pytest.raises(TypeError):
            IncrementalState(random_access_tree(0), Custom())


class TestMoves:
    def test_add_remove_link_round_trip(self):
        topology = random_access_tree(5)
        u = "c1"
        v = next(
            f"c{i}" for i in range(2, 25) if not topology.has_link(u, f"c{i}")
        )
        state = IncrementalState(topology, CostObjective())
        links_before = topology.num_links
        state.apply(AddLink(u, v, install_cost=4.0))
        assert topology.num_links == links_before + 1
        state.apply(RemoveLink(u, v))
        assert topology.num_links == links_before
        state.revert()
        state.revert()
        assert topology.num_links == links_before
        state.verify()

    def test_remove_link_disconnects_and_penalizes(self):
        topology = random_access_tree(5)
        state = IncrementalState(topology, CostObjective())
        assert state.unserved_demand == pytest.approx(0.0)
        delta = state.apply(RemoveLink("c0", "core0"))
        assert state.unserved_demand > 0
        assert delta > 0  # the lost link cost is dwarfed by the penalty
        assert not state.is_served("c0")
        state.verify()
        state.revert()
        assert state.unserved_demand == pytest.approx(0.0)
        assert state.is_served("c0")

    def test_add_node_with_attachment_is_served(self):
        topology = random_access_tree(5)
        state = IncrementalState(topology, ProfitObjective())
        delta = state.apply(
            AddNode("fresh", role=NodeRole.CUSTOMER, demand=4.0, attach_to=("c0",))
        )
        assert state.is_served("fresh")
        assert delta < 0  # new revenue, near-zero unannotated link cost
        state.verify()
        state.revert()
        assert not topology.has_node("fresh")
        state.verify()

    def test_add_node_failed_attachment_rolls_back(self):
        topology = random_access_tree(5)
        topology.node("c0").max_degree = topology.degree("c0")
        state = IncrementalState(topology, CostObjective())
        score_before = state.score
        with pytest.raises(TopologyError):
            state.apply(
                AddNode("fresh", role=NodeRole.CUSTOMER, demand=1.0, attach_to=("c0",))
            )
        assert not topology.has_node("fresh")
        assert state.score == score_before
        assert state.undo_depth == 0
        state.verify()

    def test_rewire_rescales_annotations_by_length(self):
        topology = Topology()
        topology.add_node("core", role=NodeRole.CORE, location=(0.0, 0.0))
        topology.add_node("far", role=NodeRole.GENERIC, location=(10.0, 0.0))
        topology.add_node("near", role=NodeRole.GENERIC, location=(1.0, 0.0))
        topology.add_node("cust", role=NodeRole.CUSTOMER, location=(0.0, 0.0), demand=1.0)
        topology.add_link("cust", "far", install_cost=20.0, usage_cost=2.0, load=1.0)
        topology.add_link("core", "near")
        topology.add_link("core", "far")
        state = IncrementalState(topology, CostObjective())
        state.apply(Rewire("cust", "far", "near"))
        moved = topology.link("cust", "near")
        assert moved.install_cost == pytest.approx(2.0)  # 20 * (1/10)
        assert moved.usage_cost == pytest.approx(0.2)
        state.verify()

    def test_duplicate_link_rejected_without_corruption(self):
        topology = random_access_tree(4)
        state = IncrementalState(topology, CostObjective())
        with pytest.raises(TopologyError):
            state.apply(AddLink("c0", "core0"))
        state.verify()
        assert state.undo_depth == 0


class _IterationCountingDict(dict):
    """A dict that counts every pass over its keys, values or items."""

    def __init__(self, *args):
        super().__init__(*args)
        self.iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()

    def keys(self):
        self.iterations += 1
        return super().keys()

    def values(self):
        self.iterations += 1
        return super().values()

    def items(self):
        self.iterations += 1
        return super().items()


class TestUndoStack:
    def test_rejected_rewire_leaves_the_link_table_alone(self):
        """Apply + revert of a Rewire neither rebuilds nor walks the link table."""
        leaves = 20_000
        rng = random.Random(4)
        topology = Topology()
        topology.add_node("hub", role=NodeRole.CORE, location=(0.5, 0.5))
        for i in range(leaves):
            topology.add_node(
                i, role=NodeRole.CUSTOMER, location=(rng.random(), rng.random()), demand=1.0
            )
            topology.add_link(i, "hub", install_cost=1.0)
        state = IncrementalState(topology, CostObjective())
        score = state.score
        keys = list(topology.link_keys())
        table = _IterationCountingDict(topology._links)
        topology._links = table
        for step in range(300):
            leaf = (step * 6007) % leaves
            move = Rewire(leaf, "hub", (leaf + 1) % leaves)
            state.apply(move)
            state.revert(move)
        assert topology._links is table
        assert table.iterations == 0
        assert state.score == score
        assert list(topology.link_keys()) == keys
        assert topology.validate() == []

    def test_revert_without_moves_raises(self):
        state = IncrementalState(random_access_tree(0), CostObjective())
        with pytest.raises(ValueError):
            state.revert()

    def test_revert_checks_move_identity(self):
        state = IncrementalState(random_access_tree(0), CostObjective())
        move = UpgradeCable("c0", "core0", install_cost=9.0)
        state.apply(move)
        with pytest.raises(ValueError):
            state.revert(UpgradeCable("c1", "core0", install_cost=9.0))
        state.revert(move)

    def test_revert_to_partial_depth(self):
        topology = random_access_tree(2)
        state = IncrementalState(topology, CostObjective())
        scores = [state.score]
        for install in (5.0, 10.0, 20.0):
            state.apply(UpgradeCable("c0", "core0", install_cost=install))
            scores.append(state.score)
        state.revert_to(1)
        assert state.score == scores[1]
        with pytest.raises(ValueError):
            state.revert_to(5)
        with pytest.raises(ValueError):
            state.revert_to(-1)


def served_bits(state: IncrementalState):
    """The served aggregates and every node's component summary, as bits."""
    summaries = {}
    for node_id in state.topology.node_ids():
        summary = state._dyn.summary(node_id)
        summaries[node_id] = (
            summary.size,
            summary.has_core,
            summary.demand.hex(),
            summary.revenue.hex(),
            state.is_served(node_id),
        )
    return (
        state.score.hex(),
        state.served_demand.hex(),
        state.unserved_demand.hex(),
        summaries,
    )


class TestRebuild:
    def moved_state(self, make_objective):
        """A state whose forest has been reshaped by kept and reverted moves."""
        topology = random_access_tree(6, size=40)
        state = IncrementalState(topology, make_objective())
        rng = random.Random(6)
        for step in range(60):
            move = random_move(topology, rng, step)
            if move is None:
                continue
            try:
                state.apply(move)
            except TopologyError:
                continue
            if rng.random() < 0.5:
                state.revert()
        return topology, state

    @staticmethod
    def edit_annotations(topology: Topology) -> None:
        """Growth-style edits: demand growth, a role change, re-priced links."""
        for node in topology.nodes():
            if node.role == NodeRole.CUSTOMER:
                node.demand *= 1.1
        topology.node("c7").role = NodeRole.CORE
        for link in topology.links():
            link.install_cost *= 1.5
            link.load += 0.25

    @pytest.mark.parametrize("name,make_objective", OBJECTIVES)
    def test_kept_forest_resync_equals_fresh_state(self, name, make_objective):
        topology, state = self.moved_state(make_objective)
        self.edit_annotations(topology)
        tree_ops = KERNEL_COUNTERS.dynconn_tree_ops
        forest = state._dyn
        state.rebuild()
        assert state._dyn is forest
        assert KERNEL_COUNTERS.dynconn_tree_ops == tree_ops  # no forest was built
        assert state.undo_depth == 0
        assert served_bits(state) == served_bits(IncrementalState(topology, make_objective()))

    @pytest.mark.parametrize("name,make_objective", OBJECTIVES)
    def test_structural_edit_behind_the_state_builds_a_new_forest(
        self, name, make_objective
    ):
        topology, state = self.moved_state(make_objective)
        self.edit_annotations(topology)
        forest = state._dyn
        assert state.is_served("c3") and topology.degree("c3") > 0
        for neighbor in topology.neighbors("c3"):
            topology.remove_link("c3", neighbor)
        state.rebuild()
        assert not state.is_served("c3")
        assert state._dyn is not forest
        assert served_bits(state) == served_bits(IncrementalState(topology, make_objective()))


class TestCounters:
    def test_delta_and_full_eval_counters(self):
        topology = random_access_tree(1)
        KERNEL_COUNTERS.reset()
        objective = CostObjective()
        state = IncrementalState(topology, objective)  # rebuild = 1 full eval
        assert KERNEL_COUNTERS.objective_full_evals == 1
        for install in (2.0, 4.0, 8.0):
            state.apply(UpgradeCable("c0", "core0", install_cost=install))
        assert KERNEL_COUNTERS.objective_delta_evals == 3
        assert KERNEL_COUNTERS.objective_full_evals == 1
        objective.evaluate(topology)
        assert KERNEL_COUNTERS.objective_full_evals == 2
