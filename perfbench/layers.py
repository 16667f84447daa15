"""Per-layer tracing from outside the library.

:class:`Tracer` wraps the public entry points of each ``repro`` layer with
self-time spans (a span's duration minus the time its wrapped children
took) while it is installed, and :func:`layer_metrics` turns the spans plus
``KERNEL_COUNTERS`` snapshot deltas into the per-layer metrics. The counters
are process-global, so the benchmark only ever takes deltas around its own
operations; it never resets them.

A module-level function is patched in every loaded module that bound it by
name (``from x import f``), so library-internal calls are traced too. A
method is patched on its class.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, class or None, attribute, span name)
TARGETS: List[Tuple[str, Optional[str], str, str]] = [
    ("repro.core.fkp", None, "generate_fkp_tree", "core.fkp"),
    ("repro.topology.graph", "Topology", "compiled", "compiled"),
    ("repro.routing.engine", None, "route_demand", "engine"),
    ("repro.routing.engine", None, "compile_demand", "engine"),
    ("repro.routing.temporal", None, "failure_cascade", "temporal"),
    ("repro.optimization.incremental", "IncrementalState", "__init__", "incremental.init"),
    ("repro.optimization.incremental", "IncrementalState", "apply", "incremental.apply"),
    ("repro.optimization.incremental", "IncrementalState", "revert", "incremental.revert"),
    ("repro.optimization.incremental", "IncrementalState", "revert_to", "incremental.revert"),
    ("repro.optimization.incremental", "IncrementalState", "rebuild", "incremental.rebuild"),
    ("repro.optimization.facility_location", None, "k_median", "facility.k_median"),
    ("repro.optimization.local_search", None, "hill_climb_moves", "local_search"),
    ("repro.core.access_design", "AccessNetworkDesigner", "design", "access.design"),
    ("repro.core.buyatbulk", None, "route_tree_flows", "buyatbulk.route_tree_flows"),
    ("repro.economics.provisioning", None, "provision_topology", "provisioning"),
]

#: Every per-layer metric: (name, unit, better). BENCHMARK.json lists the same.
LAYER_METRICS: List[Tuple[str, str, str]] = [
    ("core.fkp.generate_s", "s", "lower"),
    ("core.fkp.us_per_node", "us", "lower"),
    ("spatial.queries", "count", "lower"),
    ("spatial.candidates_per_query", "ratio", "lower"),
    ("compiled.compile_s", "s", "lower"),
    ("compiled.compilations", "count", "lower"),
    ("compiled.compilations_per_round", "ratio", "lower"),
    ("engine.route_s", "s", "lower"),
    ("engine.sources_searched", "count", "lower"),
    ("engine.batch_calls", "count", "lower"),
    ("temporal.cascade_self_s", "s", "lower"),
    ("temporal.rounds", "count", "lower"),
    ("temporal.trips", "count", "lower"),
    ("temporal.resolved_sources", "count", "lower"),
    ("temporal.resolved_fraction", "ratio", "lower"),
    ("incremental.init_s", "s", "lower"),
    ("incremental.apply_s", "s", "lower"),
    ("incremental.revert_s", "s", "lower"),
    ("incremental.rebuild_s", "s", "lower"),
    ("incremental.delta_evals", "count", "lower"),
    ("incremental.reachability_rebuilds", "count", "lower"),
    ("dynconn.tree_ops", "count", "lower"),
    ("dynconn.tree_ops_per_round", "ratio", "lower"),
    ("dynconn.replacement_searches", "count", "lower"),
    ("facility.k_median_s", "s", "lower"),
    ("facility.k_median_calls", "count", "lower"),
    ("local_search.hill_climb_s", "s", "lower"),
    ("local_search.iterations", "count", "lower"),
    ("local_search.accept_ratio", "ratio", "higher"),
    ("access.design_s", "s", "lower"),
    ("buyatbulk.route_tree_flows_s", "s", "lower"),
    ("provisioning.provision_s", "s", "lower"),
    ("unattributed_s", "s", "lower"),
    ("trace_overhead_s", "s", "lower"),
    ("traced_ops", "count", "higher"),
]


class Tracer:
    """Self-time spans and result counts, accumulated over traced operations."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.results: Counter = Counter()  # counts read off returned objects
        self._children: List[float] = []  # wrapped-child time per open span
        self._undo: List[Callable[[], None]] = []

    # -- wrapping -------------------------------------------------------
    def _wrap(self, span: str, fn: Callable) -> Callable:
        children = self._children

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[span] += elapsed - children.pop()
                self.calls[span] += 1
                if children:
                    children[-1] += elapsed
            self._observe(span, result)
            return result

        return wrapper

    def _observe(self, span: str, result: Any) -> None:
        if span == "core.fkp":
            self.results["fkp_nodes"] += result.num_nodes
        elif span == "temporal":
            rounds = result.rounds
            self.results["cascade_rounds"] += len(rounds)
            self.results["resolved"] += sum(r.flow.resolved_sources for r in rounds)
            # The first round resolves every source group.
            self.results["resolvable"] += rounds[0].flow.resolved_sources * len(rounds)
        elif span == "local_search":
            self.results["search_iterations"] += result.iterations
            self.results["search_accepted"] += result.accepted_moves

    def install(self) -> None:
        """Patch every target; :meth:`uninstall` restores the originals."""
        functions: Dict[int, Callable] = {}
        for module_name, class_name, attr, span in TARGETS:
            module = importlib.import_module(module_name)
            if class_name is None:
                original = getattr(module, attr)
                functions[id(original)] = self._wrap(span, original)
            else:
                cls = getattr(module, class_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(span, original))
                self._undo.append(functools.partial(setattr, cls, attr, original))
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                wrapper = functions.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    namespace[key] = wrapper
                    self._undo.append(functools.partial(namespace.__setitem__, key, value))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer,
    counters: Dict[str, int],
    traced_walls: List[float],
    untraced_walls: List[float],
) -> Dict[str, float]:
    """Per-operation layer metrics from ``len(traced_walls)`` traced ops.

    ``counters`` holds the summed ``KERNEL_COUNTERS`` deltas of the traced
    ops; ``untraced_walls`` are the same instances run with tracing off.
    """
    ops = len(traced_walls)
    s, c, r = tracer.self_s, counters, tracer.results
    rounds = r["cascade_rounds"]

    def per_op(value: float) -> float:
        return value / ops

    return {
        "core.fkp.generate_s": per_op(s["core.fkp"]),
        "core.fkp.us_per_node": _ratio(s["core.fkp"] * 1e6, r["fkp_nodes"]),
        "spatial.queries": per_op(c["spatial_queries"]),
        "spatial.candidates_per_query": _ratio(
            c["spatial_candidates"], c["spatial_queries"]
        ),
        "compiled.compile_s": per_op(s["compiled"]),
        "compiled.compilations": per_op(c["compilations"]),
        "compiled.compilations_per_round": _ratio(c["compilations"], rounds),
        "engine.route_s": per_op(s["engine"]),
        "engine.sources_searched": per_op(c["batch_sources_total"]),
        "engine.batch_calls": per_op(c["batch_dijkstra_calls"]),
        "temporal.cascade_self_s": per_op(s["temporal"]),
        "temporal.rounds": per_op(rounds),
        "temporal.trips": per_op(c["cascade_trips"]),
        "temporal.resolved_sources": per_op(r["resolved"]),
        "temporal.resolved_fraction": _ratio(r["resolved"], r["resolvable"]),
        "incremental.init_s": per_op(s["incremental.init"]),
        "incremental.apply_s": per_op(s["incremental.apply"]),
        "incremental.revert_s": per_op(s["incremental.revert"]),
        "incremental.rebuild_s": per_op(s["incremental.rebuild"]),
        "incremental.delta_evals": per_op(c["objective_delta_evals"]),
        "incremental.reachability_rebuilds": per_op(c["reachability_rebuilds"]),
        "dynconn.tree_ops": per_op(c["dynconn_tree_ops"]),
        "dynconn.tree_ops_per_round": _ratio(c["dynconn_tree_ops"], rounds),
        "dynconn.replacement_searches": per_op(c["dynconn_replacement_searches"]),
        "facility.k_median_s": per_op(s["facility.k_median"]),
        "facility.k_median_calls": per_op(tracer.calls["facility.k_median"]),
        "local_search.hill_climb_s": per_op(s["local_search"]),
        "local_search.iterations": per_op(r["search_iterations"]),
        "local_search.accept_ratio": _ratio(
            r["search_accepted"], r["search_iterations"]
        ),
        "access.design_s": per_op(s["access.design"]),
        "buyatbulk.route_tree_flows_s": per_op(s["buyatbulk.route_tree_flows"]),
        "provisioning.provision_s": per_op(s["provisioning"]),
        "unattributed_s": per_op(sum(traced_walls) - sum(s.values())),
        "trace_overhead_s": per_op(sum(traced_walls) - sum(untraced_walls)),
        "traced_ops": float(ops),
    }
