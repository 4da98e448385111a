"""Exact solvers for strong triadic closure maximization.

Given an undirected graph, label each edge strong or weak so that no two
strong edges share an endpoint whose far ends are non-adjacent, maximizing
the number (or total weight) of strong edges. The package offers a
brute-force oracle for small instances, fast exact solvers for proper
interval, trivially perfect, and bipartite graphs, generators for those
classes, and the set-packing reduction machinery used to study hardness.
"""

from .edgelist import ParseError, format_edge_list, parse_edge_list
from .graph import (
    Edge,
    Graph,
    TwinPartition,
    canon_edge,
    contract_twins,
    twin_classes,
)
from .incompat import (
    ConflictPair,
    IncompatGraph,
    StrongWeakLabeling,
    build_incompat,
    canon_pair,
    expand_labeling,
    labeling_from_independent_set,
    validate_stc,
)
from .ordering import (
    ProperIntervalOrdering,
    candidate_order,
    recognize,
    reverse,
    verify_umbrella,
)
from .reductions import (
    CertificationReport,
    SetPackingInstance,
    SplitInstance,
    brute_disjointnn,
    certify_reduction,
    gen_disjointnn_from_3sp,
    gen_maxstc_from_disjointnn,
    gen_random_proper_interval,
    gen_random_trivially_perfect,
    maxstc_optimum_contracted,
    nonneighborhoods,
    split_assignment_optimum,
)
from .solvers import (
    DEFAULT_ORACLE_CAP,
    OracleCapError,
    SolveResult,
    UnsupportedInstanceError,
    WrongClassError,
    brute_mwis,
    find_odd_cycle,
    find_p4_or_c4,
    maximum_matching,
    solve_auto,
    solve_bipartite,
    solve_oracle,
    solve_pig_dp,
    solve_trivially_perfect,
    trivially_perfect_forest,
    two_coloring,
)
from .split import find_split_obstruction, split_partition

__version__ = "0.1.0"

__all__ = [
    "CertificationReport",
    "ConflictPair",
    "DEFAULT_ORACLE_CAP",
    "Edge",
    "Graph",
    "IncompatGraph",
    "OracleCapError",
    "ParseError",
    "ProperIntervalOrdering",
    "SetPackingInstance",
    "SolveResult",
    "SplitInstance",
    "StrongWeakLabeling",
    "TwinPartition",
    "UnsupportedInstanceError",
    "WrongClassError",
    "brute_disjointnn",
    "brute_mwis",
    "build_incompat",
    "candidate_order",
    "canon_edge",
    "canon_pair",
    "certify_reduction",
    "contract_twins",
    "expand_labeling",
    "find_odd_cycle",
    "find_p4_or_c4",
    "find_split_obstruction",
    "format_edge_list",
    "gen_disjointnn_from_3sp",
    "gen_maxstc_from_disjointnn",
    "gen_random_proper_interval",
    "gen_random_trivially_perfect",
    "labeling_from_independent_set",
    "maximum_matching",
    "maxstc_optimum_contracted",
    "nonneighborhoods",
    "parse_edge_list",
    "recognize",
    "reverse",
    "solve_auto",
    "solve_bipartite",
    "solve_oracle",
    "solve_pig_dp",
    "solve_trivially_perfect",
    "split_assignment_optimum",
    "split_partition",
    "trivially_perfect_forest",
    "twin_classes",
    "two_coloring",
    "validate_stc",
    "verify_umbrella",
]
