"""Validation of generated topologies against empirical reference targets.

The paper's research agenda asks: "What metrics and measurements will be
required to validate or invalidate the resulting class of explanatory models?"
(§5) and insists on "diligent model validation" (§3.2 via [32]).  Since the
measured datasets the paper cites (Faloutsos AS graphs, Rocketfuel ISP maps)
are not redistributable, we encode their published *statistical signatures* as
target ranges and validate generated topologies against them:

* AS-level graphs: power-law degree tail with exponent roughly 2.1–2.7,
  small mean degree, short average paths, non-trivial clustering;
* router-level ISP access/metro networks: bounded degrees (line-card limits),
  exponential degree tails, tree-like distortion, low clustering.

A :class:`ValidationTarget` is a set of named range checks over the metric
suite; :func:`validate_topology` evaluates a topology and reports which checks
pass.  The targets are intentionally broad — they encode the *shape* of the
published observations, not specific measured numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..topology.graph import Topology
from .comparison import evaluate_topology


@dataclass(frozen=True)
class RangeCheck:
    """A single named check: metric value must lie in [minimum, maximum]."""

    metric: str
    minimum: float = -math.inf
    maximum: float = math.inf
    description: str = ""

    def evaluate(self, value: float) -> bool:
        """True when the value is inside the (inclusive) range and not NaN."""
        if value != value:
            return False
        return self.minimum <= value <= self.maximum


@dataclass
class ValidationTarget:
    """A named collection of range checks describing a reference graph family."""

    name: str
    description: str
    checks: List[RangeCheck] = field(default_factory=list)


@dataclass
class CheckResult:
    """Outcome of a single check."""

    metric: str
    value: float
    passed: bool
    minimum: float
    maximum: float
    description: str


@dataclass
class ValidationReport:
    """Outcome of validating one topology against one target."""

    target_name: str
    topology_name: str
    results: List[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True when every check passed."""
        return all(result.passed for result in self.results)

    @property
    def pass_fraction(self) -> float:
        """Fraction of checks that passed."""
        if not self.results:
            return 0.0
        return sum(1 for r in self.results if r.passed) / len(self.results)

    def failures(self) -> List[CheckResult]:
        """The checks that failed."""
        return [result for result in self.results if not result.passed]

    def summary_lines(self) -> List[str]:
        """Human-readable per-check summary."""
        lines = [f"validation of {self.topology_name!r} against {self.target_name!r}:"]
        for result in self.results:
            status = "PASS" if result.passed else "FAIL"
            lines.append(
                f"  [{status}] {result.metric} = {result.value:.3f} "
                f"(expected {result.minimum:g} .. {result.maximum:g}) {result.description}"
            )
        return lines


def as_graph_target() -> ValidationTarget:
    """Signature of measured AS-level graphs (Faloutsos et al. and successors)."""
    return ValidationTarget(
        name="as-graph",
        description=(
            "Power-law degree tail with exponent ~2.1-2.7, sparse mean degree, "
            "short paths, hub-dominated core"
        ),
        checks=[
            RangeCheck("tail_verdict_code", 0.0, 1.0, "heavy-tailed (power-law or inconclusive)"),
            RangeCheck("power_law_exponent", 1.5, 3.5, "tail exponent in the measured band"),
            RangeCheck("mean_degree", 2.0, 10.0, "sparse connectivity"),
            RangeCheck("avg_path_hops", 2.0, 7.0, "small-world path lengths"),
            RangeCheck("max_degree_share", 0.01, 0.5, "hubs present but not a pure star"),
            RangeCheck("degree_cv", 1.0, math.inf, "high degree variability"),
        ],
    )


def router_access_target() -> ValidationTarget:
    """Signature of router-level access/metro networks (Rocketfuel-style maps)."""
    return ValidationTarget(
        name="router-access",
        description=(
            "Bounded degrees (line-card limits), exponential degree tail, "
            "tree-like structure, negligible clustering"
        ),
        checks=[
            RangeCheck("tail_verdict_code", -1.0, 0.0, "exponential (or inconclusive) tail"),
            RangeCheck("max_degree", 2.0, 64.0, "degrees bounded by line cards"),
            RangeCheck("avg_clustering", 0.0, 0.1, "negligible clustering"),
            RangeCheck("cycle_edge_fraction", 0.0, 0.2, "tree-like (few redundant links)"),
            RangeCheck("distortion", 0.99, 1.5, "spanning tree carries most paths"),
            RangeCheck("leaf_fraction", 0.3, 1.0, "customer leaves dominate"),
        ],
    )


def backbone_target() -> ValidationTarget:
    """Signature of national backbone (WAN) graphs: small, meshed, low-degree."""
    return ValidationTarget(
        name="backbone",
        description="Small meshed core: moderate degrees, some redundancy, short hop counts",
        checks=[
            RangeCheck("mean_degree", 2.0, 8.0, "sparse mesh"),
            RangeCheck("max_degree", 2.0, 32.0, "degrees bounded by router line cards"),
            RangeCheck("avg_path_hops", 1.0, 10.0, "continental hop counts"),
            RangeCheck("cycle_edge_fraction", 0.0, 0.6, "limited but non-zero redundancy"),
        ],
    )


#: Registry of built-in validation targets.
BUILTIN_TARGETS: Dict[str, ValidationTarget] = {
    target.name: target
    for target in (as_graph_target(), router_access_target(), backbone_target())
}


def validate_topology(
    topology: Topology,
    target: ValidationTarget,
    sample_size: int = 50,
    seed: int = 0,
    precomputed_metrics: Optional[Dict[str, float]] = None,
) -> ValidationReport:
    """Validate a topology against a target's range checks.

    Args:
        topology: The topology to validate.
        target: The reference target.
        sample_size: Sampling budget for the underlying metric suite.
        seed: Random seed for sampled metrics.
        precomputed_metrics: Reuse an existing metric dictionary (e.g. from
            :func:`repro.metrics.comparison.evaluate_topology`) instead of
            recomputing it.
    """
    metrics = precomputed_metrics
    if metrics is None:
        metrics = evaluate_topology(
            topology, sample_size=sample_size, seed=seed
        ).metrics
    report = ValidationReport(target_name=target.name, topology_name=topology.name)
    for check in target.checks:
        value = metrics.get(check.metric, float("nan"))
        report.results.append(
            CheckResult(
                metric=check.metric,
                value=value,
                passed=check.evaluate(value),
                minimum=check.minimum,
                maximum=check.maximum,
                description=check.description,
            )
        )
    return report
