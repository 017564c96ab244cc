"""Computational coarse geometry: pseudoorbit counting and entropy classification.

The package computes finite truncations of coarse-entropy quantities on a
catalog of lazily generated metric spaces and on user-supplied finite
graphs: delta-path enumeration, exact packing (R-separated) and covering
(R-dense) solvers on orbit families, step-ball growth series, ping-pong
witness families with entropy rate bounds, coding maps that compress orbit
families through metric nets, transfer of orbit families along verified
distance-preserving maps, and a rule-based zero/infinite classifier with
coarse-embedding obstructions.

Everything reported is a finite, certified computation on a window; no
asymptotic claim is ever produced by the code itself.
"""

from .entropy import (ClassificationReport, ClassifyConfig, CodingScheme,
                      GrowthSeries, RatePoint, WitnessFamily, build_coding,
                      build_witness, catalog_pingpong, check_distance_preserved,
                      classify, code_paths, coding_injectivity_check, covering_bound,
                      dense_count, fit_log_slope, growth_series, map_iterates,
                      obstruction, pad_arms, pingpong_witness, rate_series,
                      round_trip_check, separated_count, spot_check_members,
                      transfer_orbits)
from .errors import (BudgetExceededError, CapExceededError, CoarseEntropyError,
                     InvalidInputError, NotDistancePreservingError, UnknownPointError)
from .extremal import (ExtremalResult, MetricItems, greedy_net, max_band_clique,
                       max_separated, min_dense, verify_dense, verify_separated)
from .geometry import (BGEvidence, bounded_geometry_evidence, default_sample_pairs,
                       net_retraction, quasi_geodesic_check, rips_graph)
from .numbers import INF, Dist, as_dist, dist_to_jsonable, is_finite, parse_dist
from .paths import (DeltaPath, OrbitSet, PathFamily, concat, delta_component,
                    enumerate_orbits, hop_metric, orbit_distance, pad_path, reverse,
                    step_ball, step_shells, validate_path, validate_pseudoorbit)
from .serialize import (SCHEMA_VERSION, envelope, orbits_from_json_lines, orbits_to_json_lines,
                        point_from_jsonable, point_to_jsonable, to_csv, to_json,
                        write_report)
from .spaces import (CATALOG_TAGS, BranchTree, CoarseUnion, FiniteMetricSpace, Graph,
                     IntLine, LogLine, MeasuredSpace, MetricSpace, PointRef,
                     PrimeCycle, RegularTree, TreeLine, UltrametricProduct,
                     WeightedGraph, ball, branch_tree_measured, build_finite_space,
                     build_graph, build_weighted_graph, complete_graph, cycle_graph,
                     load_edges_csv, make_example, path_graph, subspace,
                     validate_metric)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # numbers
    "Dist", "INF", "as_dist", "parse_dist", "dist_to_jsonable", "is_finite",
    # errors
    "CoarseEntropyError", "UnknownPointError", "BudgetExceededError",
    "CapExceededError", "InvalidInputError", "NotDistancePreservingError",
    # spaces
    "MetricSpace", "PointRef", "Graph", "WeightedGraph", "FiniteMetricSpace",
    "MeasuredSpace", "ball", "build_graph", "build_weighted_graph",
    "build_finite_space", "subspace", "validate_metric", "load_edges_csv",
    "UltrametricProduct", "LogLine", "IntLine", "RegularTree", "TreeLine",
    "BranchTree", "PrimeCycle", "CoarseUnion", "branch_tree_measured",
    "path_graph", "cycle_graph", "complete_graph", "make_example", "CATALOG_TAGS",
    # paths
    "DeltaPath", "PathFamily", "OrbitSet", "validate_path", "validate_pseudoorbit",
    "concat", "reverse", "pad_path", "orbit_distance", "hop_metric",
    "enumerate_orbits", "step_shells", "step_ball", "delta_component",
    # extremal
    "MetricItems", "ExtremalResult", "max_separated", "min_dense",
    "verify_separated", "verify_dense", "greedy_net", "max_band_clique",
    # entropy
    "RatePoint", "separated_count", "dense_count", "covering_bound", "rate_series",
    "WitnessFamily", "build_witness", "pingpong_witness", "catalog_pingpong",
    "pad_arms", "spot_check_members",
    "CodingScheme", "build_coding", "code_paths", "coding_injectivity_check",
    "transfer_orbits", "check_distance_preserved", "map_iterates", "round_trip_check",
    "GrowthSeries", "growth_series", "fit_log_slope",
    "ClassifyConfig", "ClassificationReport", "classify", "obstruction",
    # geometry
    "BGEvidence", "bounded_geometry_evidence", "quasi_geodesic_check",
    "default_sample_pairs", "rips_graph", "net_retraction",
    # serialization
    "SCHEMA_VERSION", "envelope", "to_json", "to_csv", "write_report",
    "point_to_jsonable", "point_from_jsonable", "orbits_to_json_lines",
    "orbits_from_json_lines",
]
