"""Rank-regret representatives of multi-attribute datasets.

A rank-regret representative is a small subset of a dataset guaranteed to
contain at least one top-k tuple for every linear ranking function.  The
package provides the exact 2-D solver, k-set enumeration (exact and
randomized), the greedy hitting-set solver, the function-space
partitioning solver, and the evaluation harness around them.
"""

from .core import (
    Dataset,
    LinearFunction,
    Representative,
    angles_to_weights,
    normalize,
    ranks,
    top_k,
    top_k_ids,
)
from .evaluate import (
    EvaluationReport,
    dual_problem,
    estimate_rank_regret,
    resolve_k,
    run_algorithm,
    run_benchmark,
)
from .hitting import mdrrr
from .kset import (
    KSet,
    KSetCollection,
    collect_ksets_random,
    enumerate_ksets_graph,
    is_valid_kset,
    load_collection,
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
    "Representative",
    "angles_to_weights",
    "collect_ksets_random",
    "corners",
    "cover_2d",
    "dual_problem",
    "enumerate_ksets_2d",
    "enumerate_ksets_graph",
    "estimate_rank_regret",
    "exact_rank_regret_2d",
    "find_ranges",
    "is_valid_kset",
    "load_collection",
    "mdrc",
    "mdrrr",
    "normalize",
    "partition_function_space",
    "ranks",
    "resolve_k",
    "rrr_2d",
    "run_algorithm",
    "run_benchmark",
    "sample_functions",
    "save_collection",
    "top_k",
    "top_k_ids",
]
