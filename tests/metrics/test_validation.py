"""Tests for repro.metrics.validation."""

from repro.core import generate_fkp_tree, random_instance, solve_meyerson
from repro.generators import BarabasiAlbertGenerator
from repro.metrics.comparison import evaluate_topology
from repro.metrics.validation import (
    BUILTIN_TARGETS,
    RangeCheck,
    ValidationTarget,
    as_graph_target,
    backbone_target,
    router_access_target,
    validate_topology,
)


class TestRangeCheck:
    def test_inside_range_passes(self):
        assert RangeCheck("x", 0.0, 1.0).evaluate(0.5)

    def test_outside_range_fails(self):
        assert not RangeCheck("x", 0.0, 1.0).evaluate(1.5)

    def test_nan_fails(self):
        assert not RangeCheck("x", 0.0, 1.0).evaluate(float("nan"))

    def test_unbounded_sides(self):
        assert RangeCheck("x", minimum=2.0).evaluate(1e9)
        assert RangeCheck("x", maximum=2.0).evaluate(-1e9)


class TestBuiltinTargets:
    def test_registry_contains_all(self):
        assert set(BUILTIN_TARGETS) == {"as-graph", "router-access", "backbone"}

    def test_targets_have_checks(self):
        for target in (as_graph_target(), router_access_target(), backbone_target()):
            assert target.checks


class TestValidateTopology:
    def test_meyerson_tree_matches_router_access(self):
        solution = solve_meyerson(random_instance(200, seed=1), seed=1)
        report = validate_topology(solution.topology, router_access_target(), sample_size=30)
        assert report.passed
        assert report.pass_fraction == 1.0
        assert report.failures() == []

    def test_ba_graph_matches_as_graph_target(self):
        topology = BarabasiAlbertGenerator().generate(500, seed=2)
        report = validate_topology(topology, as_graph_target(), sample_size=30)
        assert report.pass_fraction >= 0.8

    def test_ba_graph_fails_router_access_target(self):
        topology = BarabasiAlbertGenerator().generate(500, seed=2)
        report = validate_topology(topology, router_access_target(), sample_size=30)
        assert not report.passed

    def test_precomputed_metrics_reused(self):
        topology = generate_fkp_tree(150, alpha=40.0, seed=3)
        metrics = evaluate_topology(topology, sample_size=20).metrics
        report = validate_topology(
            topology, router_access_target(), precomputed_metrics=metrics
        )
        assert len(report.results) == len(router_access_target().checks)

    def test_missing_metric_fails_its_check(self):
        topology = generate_fkp_tree(50, alpha=10.0, seed=4)
        target = ValidationTarget(
            name="custom", description="", checks=[RangeCheck("nonexistent", 0, 1)]
        )
        report = validate_topology(topology, target, sample_size=10)
        assert not report.passed

    def test_summary_lines_mention_every_check(self):
        topology = generate_fkp_tree(100, alpha=30.0, seed=5)
        report = validate_topology(topology, router_access_target(), sample_size=20)
        text = "\n".join(report.summary_lines())
        for check in router_access_target().checks:
            assert check.metric in text
