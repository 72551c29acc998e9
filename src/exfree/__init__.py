"""Exact extremal subgraph computations at desk scale.

Given a host graph, a small pattern to count (cliques, their balanced
blow-ups, coned blow-ups, or arbitrary small graphs), and a forbidden
subgraph, this package computes the maximum number of pattern copies over all
spanning subgraphs of the host avoiding the forbidden graph — exactly, by
one include/exclude search over the host's edges run as branch-and-bound,
and checked against brute-force oracles in the test suite —
alongside the structural machinery that explains
the optima: balanced multipartite partitions, a low-degree peel toward a
dense core, greedy vertex re-insertion, exact coloring, closed-form
predictions and bounds, and a reproducible experiment harness with persistent
replayable records.
"""

from .coloring import (
    ColorOutcome,
    ColorResult,
    chromatic_number,
    critical_vertex,
    is_edge_critical,
    is_k_colorable,
    verify_proper,
)
from .counting import (
    Pattern,
    contains,
    copies_through_vertex,
    count_cliques,
    count_pattern,
    count_pattern_generic,
    max_clique_size,
    parse_pattern,
)
from .errors import (
    BudgetExceededError,
    GraphFormatError,
    InfeasibleError,
    PatternSyntaxError,
)
from .graph6 import from_graph6, to_graph6
from .graphs import (
    GenSpec,
    Graph,
    blowup,
    complete,
    coned_blowup,
    cycle,
    empty,
    generate,
    gnp,
    induced_subgraph,
    min_degree_floor,
    min_degree_random,
    parse_genspec,
    remove_vertex,
    subgraph_from_edges,
    turan,
)
from .harness import (
    ExperimentRecord,
    append_record,
    compare_prediction,
    load_records,
    replay,
    threshold_scan,
    validate_failure,
    verify_dichotomy,
    verify_extremal_colorable,
    verify_near_colorable,
)
from .solver import (
    Budgets,
    Partition,
    PeelStep,
    PeelTrace,
    RebuildResult,
    SolveResult,
    SolveStats,
    enumerate_maximal_hfree,
    enumerate_optima,
    max_hfree_subgraph,
    max_partite,
    multipartite_subgraph,
    peel,
    rebuild,
    reinsert,
)

__version__ = "0.1.0"

__all__ = [
    "Budgets",
    "BudgetExceededError",
    "ColorOutcome",
    "ColorResult",
    "ExperimentRecord",
    "GenSpec",
    "Graph",
    "GraphFormatError",
    "InfeasibleError",
    "Partition",
    "Pattern",
    "PatternSyntaxError",
    "PeelStep",
    "PeelTrace",
    "RebuildResult",
    "SolveResult",
    "SolveStats",
    "append_record",
    "blowup",
    "chromatic_number",
    "compare_prediction",
    "complete",
    "coned_blowup",
    "contains",
    "copies_through_vertex",
    "count_cliques",
    "count_pattern",
    "count_pattern_generic",
    "critical_vertex",
    "cycle",
    "empty",
    "enumerate_maximal_hfree",
    "enumerate_optima",
    "from_graph6",
    "generate",
    "gnp",
    "induced_subgraph",
    "is_edge_critical",
    "is_k_colorable",
    "load_records",
    "max_clique_size",
    "max_hfree_subgraph",
    "max_partite",
    "min_degree_floor",
    "min_degree_random",
    "multipartite_subgraph",
    "parse_genspec",
    "parse_pattern",
    "peel",
    "rebuild",
    "reinsert",
    "remove_vertex",
    "replay",
    "subgraph_from_edges",
    "threshold_scan",
    "to_graph6",
    "turan",
    "validate_failure",
    "verify_dichotomy",
    "verify_extremal_colorable",
    "verify_near_colorable",
    "verify_proper",
]
