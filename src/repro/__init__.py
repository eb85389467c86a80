"""repro — Interpretable analysis of GPU-cluster monitoring data.

Reproduction of *Interpretable Analysis of Production GPU Clusters
Monitoring Data via Association Rule Mining* (Li, Samsi, Gadepally,
Tiwari — IPPS 2024).

Quickstart::

    from repro import full_case_study
    study = full_case_study("supercloud", n_jobs=5000)
    print(study.render())

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.core` — association-rule mining (FP-Growth, metrics,
  keyword pruning Conditions 1–4; Apriori and Eclat as baselines);
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

Nothing is imported until a name is first used (PEP 562): ``python -m
repro serve`` and its shard workers load the serving layers, not the
miners, trace generators or the cluster simulator.
"""

import importlib

#: module (relative to this package) → the public names it defines
_SUBMODULES = {
    ".core.items": ("Item",),
    ".core.transactions": ("TransactionDatabase",),
    ".core.itemsets": ("FrequentItemsets",),
    ".core.rules": ("AssociationRule", "generate_rule_table"),
    ".core.ruletable": ("RuleTable",),
    ".core.pruning": ("prune_rule_table",),
    ".core.config": ("MiningConfig", "PruningConfig"),
    ".core.mining": ("KeywordRuleSet", "mine_frequent_itemsets", "mine_keyword_rules"),
    ".preprocess.pipeline": ("TracePreprocessor",),
    ".preprocess.encoding": ("TransactionEncoder",),
    ".traces.registry": ("TRACES", "get_trace", "list_traces"),
    ".analysis.workflow": ("InterpretableAnalysis", "AnalysisResult"),
    ".analysis.report": ("CaseStudyTable", "format_rule_table"),
    ".analysis.casestudies": (
        "analyze_trace", "underutilization_study", "failure_study", "misc_study",
        "full_case_study", "CaseStudy",
    ),
    ".engine.engine": ("MiningEngine",),
    ".obs": ("EngineStats",),
    ".predict": ("RuleClassifier", "evaluate_predictions", "split_database"),
    ".serve.rulebook": ("RuleBook",),
    ".serve.index": ("RuleIndex",),
    ".serve.service": ("RuleService",),
    ".serve.client": ("RuleServiceClient",),
}
#: public name → its module
_EXPORTS = {name: module for module, names in _SUBMODULES.items() for name in names}

__version__ = "1.0.0"

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    try:
        module = importlib.import_module(_EXPORTS[name], __name__)
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(module, name)
    return value
