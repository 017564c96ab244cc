"""Entropy-side machinery: counts and rates, witness families, transfer
maps, coding maps, growth series, and the dichotomy classifier."""

from .classify import ClassificationReport, ClassifyConfig, classify, obstruction
from .coding import (CodingScheme, build_coding, code_paths,
                     coding_injectivity_check)
from .counts import (RatePoint, covering_bound, dense_count, rate_series,
                     separated_count)
from .growth import GrowthSeries, fit_log_slope, growth_series
from .transfer import (check_distance_preserved, map_iterates,
                       round_trip_check, transfer_orbits)
from .witness import (WitnessFamily, build_witness, catalog_pingpong, pad_arms,
                      pingpong_witness, spot_check_members)

__all__ = [
    "ClassificationReport", "ClassifyConfig", "classify", "obstruction",
    "CodingScheme", "build_coding", "code_paths", "coding_injectivity_check",
    "RatePoint", "covering_bound", "dense_count", "rate_series", "separated_count",
    "GrowthSeries", "fit_log_slope", "growth_series",
    "check_distance_preserved", "map_iterates", "round_trip_check", "transfer_orbits",
    "WitnessFamily", "build_witness", "catalog_pingpong", "pad_arms",
    "pingpong_witness", "spot_check_members",
]
