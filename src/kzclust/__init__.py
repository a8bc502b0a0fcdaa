"""Incremental Euclidean (k,z)-clustering in almost-linear time.

Greedy hierarchical ball selection: ball values are estimated with mergeable
distinct-count sketches over grid-LSH buckets, candidate and removal
neighborhoods come from fixed-radius indexes, and the resulting ordering of
input points is incremental -- every k-prefix is a k-center solution.
"""

from .greedy import BallRef, GreedyState, Solution, descend, init, remove_around, run, run_incremental, solve
from .lsh import NeighborhoodIndex, build, num_tables
from .metric import (
    ClusterParams,
    DataRangeError,
    Dataset,
    ScaleInfo,
    cost,
    distance,
    jl_project,
    level_radii,
    min_nonzero_distance,
    normalize,
    radius_at_level,
)
from .oracles import OptResult, brute_optimal, kmeanspp, transcribed_algorithm
from .sketch import DistinctSketch, compute_values

__version__ = "0.1.0"

__all__ = [
    "BallRef",
    "ClusterParams",
    "DataRangeError",
    "Dataset",
    "DistinctSketch",
    "GreedyState",
    "NeighborhoodIndex",
    "OptResult",
    "ScaleInfo",
    "Solution",
    "brute_optimal",
    "build",
    "compute_values",
    "cost",
    "descend",
    "distance",
    "init",
    "jl_project",
    "kmeanspp",
    "level_radii",
    "min_nonzero_distance",
    "normalize",
    "num_tables",
    "radius_at_level",
    "remove_around",
    "run",
    "run_incremental",
    "solve",
    "transcribed_algorithm",
]
