"""Topology metric suite: degree distributions, tails, clustering, hierarchy,
expansion, resilience, distortion, spectra, and the comparison harness."""

from .degree import (
    DegreeStatistics,
    degree_ccdf,
    degree_histogram,
    degree_sequence,
    degree_statistics,
    leaf_fraction,
    max_degree_share,
    topology_degree_ccdf,
)
from .fits import (
    ExponentialFit,
    PowerLawFit,
    TailClassification,
    ccdf_linear_fit_r2,
    classify_tail,
    fit_exponential,
    fit_power_law,
)
from .clustering import (
    average_clustering,
    clustering_by_node,
    local_clustering,
    transitivity,
)
from .distance import (
    average_shortest_path_hops,
    hop_diameter,
)
from .expansion import ball_sizes, expansion_at, expansion_curve
from .resilience import (
    RemovalTrace,
    removal_trace,
    robustness_summary,
)
from .distortion import cycle_edge_fraction, tree_distortion
from .spectrum import (
    adjacency_matrix,
    adjacency_spectrum,
    laplacian_matrix,
    laplacian_spectrum,
    spectral_summary,
)
from .hierarchy_metrics import (
    core_periphery_ratio,
    degree_assortativity,
)
from .validation import (
    BUILTIN_TARGETS,
    CheckResult,
    RangeCheck,
    ValidationReport,
    ValidationTarget,
    as_graph_target,
    backbone_target,
    router_access_target,
    validate_topology,
)
from .comparison import (
    METRIC_COLUMNS,
    TAIL_VERDICT_CODES,
    TopologyReport,
    compare_topologies,
    evaluate_topology,
    metric_disagreement,
    report_table,
)

__all__ = [
    "DegreeStatistics",
    "degree_ccdf",
    "degree_histogram",
    "degree_sequence",
    "degree_statistics",
    "leaf_fraction",
    "max_degree_share",
    "topology_degree_ccdf",
    "ExponentialFit",
    "PowerLawFit",
    "TailClassification",
    "ccdf_linear_fit_r2",
    "classify_tail",
    "fit_exponential",
    "fit_power_law",
    "average_clustering",
    "clustering_by_node",
    "local_clustering",
    "transitivity",
    "average_shortest_path_hops",
    "hop_diameter",
    "ball_sizes",
    "expansion_at",
    "expansion_curve",
    "RemovalTrace",
    "removal_trace",
    "robustness_summary",
    "cycle_edge_fraction",
    "tree_distortion",
    "adjacency_matrix",
    "adjacency_spectrum",
    "laplacian_matrix",
    "laplacian_spectrum",
    "spectral_summary",
    "core_periphery_ratio",
    "degree_assortativity",
    "BUILTIN_TARGETS",
    "CheckResult",
    "RangeCheck",
    "ValidationReport",
    "ValidationTarget",
    "as_graph_target",
    "backbone_target",
    "router_access_target",
    "validate_topology",
    "METRIC_COLUMNS",
    "TAIL_VERDICT_CODES",
    "TopologyReport",
    "compare_topologies",
    "evaluate_topology",
    "metric_disagreement",
    "report_table",
]
