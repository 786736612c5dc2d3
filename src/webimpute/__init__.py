"""webimpute: fill missing values in relational tables.

Missing cells are imputed first from the table's own dependencies (a
naive-Bayes pass over a weighted dependency graph built from FD/CFD-style
rules), then from text retrieval: the best keyword group for each remaining
cell is submitted to a pluggable search provider and values are extracted
through mined text patterns or dictionary distance matching.
"""

from .bayes import ABSTAIN, BayesDecision, impute_internal
from .depgraph import DependencyGraph, build_dependency_graph, export_dot
from .evalharness import Metrics, SweepResult, evaluate, run_one, sweep
from .extract import (
    Dictionary,
    avg_distance,
    build_dictionary,
    dictionary_values,
    extract_by_keywords,
)
from .keywords import (
    SinkGraph,
    enumerate_single_sink_graphs,
    render_keywords,
    select_optimal,
)
from .patterns import (
    Pattern,
    extract_by_pattern,
    load_patterns,
    mine_patterns,
    save_patterns,
)
from .pipeline import RunConfig, RunReport, impute
from .providers import (
    Document,
    HttpProvider,
    LocalCorpusProvider,
    ProviderError,
    Query,
    load_corpus,
)
from .rules import Rule, RuleSet, estimate_confidence, parse_rules, parse_rules_file
from .tabular import (
    MISSING,
    MaskedCell,
    MaskSpec,
    Table,
    TableError,
    load_table,
    mask_random,
    read_ground_truth,
    write_ground_truth,
    write_table,
)

__version__ = "0.1.0"

__all__ = [
    "ABSTAIN",
    "BayesDecision",
    "DependencyGraph",
    "Dictionary",
    "Document",
    "HttpProvider",
    "LocalCorpusProvider",
    "MISSING",
    "MaskSpec",
    "MaskedCell",
    "Metrics",
    "Pattern",
    "ProviderError",
    "Query",
    "Rule",
    "RuleSet",
    "RunConfig",
    "RunReport",
    "SinkGraph",
    "SweepResult",
    "Table",
    "TableError",
    "avg_distance",
    "build_dependency_graph",
    "build_dictionary",
    "dictionary_values",
    "enumerate_single_sink_graphs",
    "estimate_confidence",
    "evaluate",
    "export_dot",
    "extract_by_keywords",
    "extract_by_pattern",
    "impute",
    "impute_internal",
    "load_corpus",
    "load_patterns",
    "load_table",
    "mask_random",
    "mine_patterns",
    "parse_rules",
    "parse_rules_file",
    "read_ground_truth",
    "render_keywords",
    "run_one",
    "save_patterns",
    "select_optimal",
    "sweep",
    "write_ground_truth",
    "write_table",
]
