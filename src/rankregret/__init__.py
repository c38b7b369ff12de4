"""Rank-regret representatives of multi-attribute datasets.

A rank-regret representative is a small subset of a dataset guaranteed to
contain at least one top-k tuple for every linear ranking function.  The
package provides the exact 2-D solver, k-set enumeration (exact and
randomized), the epsilon-net hitting-set solver, the function-space
partitioning solver, and the evaluation harness around them.
"""

from .core import (
    Dataset,
    LinearFunction,
    RankedList,
    Representative,
    angles_to_weights,
    exchange_angle,
    normalize,
    rank_list,
    ranks,
    score,
    top_k,
    top_k_ids,
    top_k_many,
    weights_to_angles,
)
from .evaluate import (
    EvaluationReport,
    dual_problem,
    estimate_rank_regret,
    resolve_k,
    run_algorithm,
    run_benchmark,
)
from .hitting import exact_hitting, greedy_hitting, mdrrr
from .kset import (
    KSet,
    KSetCollection,
    collect_ksets_random,
    enumerate_ksets_graph,
    is_valid_kset,
    load_collection,
    sample_function,
    sample_functions,
    save_collection,
)
from .mdrc import HyperRectangle, corners, mdrc, partition_function_space
from .sweep2d import (
    AngularRange,
    cover_2d,
    enumerate_ksets_2d,
    exact_rank_regret_2d,
    find_ranges,
    rrr_2d,
)

__version__ = "0.1.0"

__all__ = [
    "AngularRange",
    "Dataset",
    "EvaluationReport",
    "HyperRectangle",
    "KSet",
    "KSetCollection",
    "LinearFunction",
    "RankedList",
    "Representative",
    "angles_to_weights",
    "collect_ksets_random",
    "corners",
    "cover_2d",
    "dual_problem",
    "enumerate_ksets_2d",
    "enumerate_ksets_graph",
    "estimate_rank_regret",
    "exact_hitting",
    "exact_rank_regret_2d",
    "exchange_angle",
    "find_ranges",
    "greedy_hitting",
    "is_valid_kset",
    "load_collection",
    "mdrc",
    "mdrrr",
    "normalize",
    "partition_function_space",
    "rank_list",
    "ranks",
    "resolve_k",
    "rrr_2d",
    "run_algorithm",
    "run_benchmark",
    "sample_function",
    "sample_functions",
    "save_collection",
    "score",
    "top_k",
    "top_k_ids",
    "top_k_many",
    "weights_to_angles",
]
