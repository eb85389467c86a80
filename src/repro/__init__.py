"""repro — Interpretable analysis of GPU-cluster monitoring data.

Reproduction of *Interpretable Analysis of Production GPU Clusters
Monitoring Data via Association Rule Mining* (Li, Samsi, Gadepally,
Tiwari — IPPS 2024).

Quickstart::

    from repro import full_case_study
    study = full_case_study("supercloud", n_jobs=5000)
    print(study.render())

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.core` — association-rule mining (FP-Growth / Apriori /
  Eclat, metrics, keyword pruning Conditions 1–4);
* :mod:`repro.preprocess` — Sec. III-E trace preprocessing;
* :mod:`repro.traces` — synthetic PAI / SuperCloud / Philly traces;
* :mod:`repro.cluster` — the GPU-cluster simulator substrate;
* :mod:`repro.analysis` — the end-to-end workflow and case studies;
* :mod:`repro.engine` — the mining engine (one serial mining pass per
  call, per-stage instrumentation);
* :mod:`repro.serve` — online rule serving (persistent RuleBook,
  inverted-index matcher, asyncio service with batching/backpressure);
* :mod:`repro.dataframe` — the minimal columnar-table substrate;
* :mod:`repro.viz` — figure data (CDFs, box stats, rule scatters).
"""

from .analysis import (
    AnalysisResult,
    CaseStudy,
    InterpretableAnalysis,
    RuleTable,
    analyze_trace,
    failure_study,
    format_rule_table,
    full_case_study,
    misc_study,
    underutilization_study,
)
from .core import (
    AssociationRule,
    FrequentItemsets,
    Item,
    KeywordRuleSet,
    MiningConfig,
    PruningConfig,
    TransactionDatabase,
    apriori,
    eclat,
    fpgrowth,
    generate_rules,
    mine_frequent_itemsets,
    mine_keyword_rules,
    mine_rules,
    prune_rules,
)
from .engine import EngineStats, MiningEngine
from .predict import RuleClassifier, evaluate_predictions, split_database
from .serve import RuleBook, RuleIndex, RuleService, RuleServiceClient
from .preprocess import TracePreprocessor, TransactionEncoder
from .traces import TRACES, get_trace, list_traces

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "Item",
    "TransactionDatabase",
    "fpgrowth",
    "apriori",
    "eclat",
    "FrequentItemsets",
    "AssociationRule",
    "generate_rules",
    "prune_rules",
    "MiningConfig",
    "PruningConfig",
    "KeywordRuleSet",
    "mine_frequent_itemsets",
    "mine_rules",
    "mine_keyword_rules",
    # preprocessing
    "TracePreprocessor",
    "TransactionEncoder",
    # traces
    "TRACES",
    "get_trace",
    "list_traces",
    # analysis
    "InterpretableAnalysis",
    "AnalysisResult",
    "RuleTable",
    "format_rule_table",
    "analyze_trace",
    "underutilization_study",
    "failure_study",
    "misc_study",
    "full_case_study",
    "CaseStudy",
    # engine
    "MiningEngine",
    "EngineStats",
    # prediction
    "RuleClassifier",
    "evaluate_predictions",
    "split_database",
    # serving
    "RuleBook",
    "RuleIndex",
    "RuleService",
    "RuleServiceClient",
]
