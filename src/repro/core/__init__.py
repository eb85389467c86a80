"""Association-rule mining core — the paper's primary contribution.

Layers, bottom to top:

* :mod:`repro.core.items` / :mod:`repro.core.transactions` — interned
  items and the CSR transaction database.
* :mod:`repro.core.bitmap` — packed uint64 occurrence bitsets, the
  counting kernel every miner shares.
* :mod:`repro.core.fpgrowth`, :mod:`repro.core.apriori`,
  :mod:`repro.core.eclat` — interchangeable frequent-itemset miners.
* :mod:`repro.core.itemsets`, :mod:`repro.core.metrics`,
  :mod:`repro.core.rules` — result containers, rule quality metrics and
  rule enumeration.
* :mod:`repro.core.ruletable` — the columnar (struct-of-arrays)
  :class:`RuleTable`, the canonical rule representation every layer
  above rule generation operates on.
* :mod:`repro.core.pruning` — the keyword-centric Conditions 1–4.
* :mod:`repro.core.mining` — one-call orchestration with paper defaults.

Nothing is imported until a name is first used (PEP 562), so a serving
process that needs only items and rule tables never loads a miner.
``apriori``, ``eclat`` and ``fpgrowth`` are also submodule names: a
direct ``import repro.core.fpgrowth`` rebinds the package attribute to
the submodule until :mod:`repro.core.mining` (which every mining path
loads) binds the functions back.
"""

import importlib

#: module (relative to this package) → the public names it defines
_SUBMODULES = {
    ".items": ("Item", "ItemVocabulary", "render_itemset"),
    ".transactions": ("TransactionDatabase",),
    ".bitmap": ("PackedBitmaps", "popcount"),
    ".fpgrowth": ("fpgrowth",),
    ".apriori": ("apriori", "apriori_naive", "generate_candidates"),
    ".eclat": ("eclat",),
    ".itemsets": ("FrequentItemsets",),
    ".metrics": (
        "RuleMetrics", "compute_metrics", "confidence", "lift", "leverage",
        "conviction",
    ),
    ".rules": ("AssociationRule", "generate_rules", "generate_rule_table"),
    ".ruletable": ("RuleTable",),
    ".config": ("MiningConfig", "PruningConfig"),
    ".pruning": (
        "PruningReport", "prune_rules", "prune_rule_table", "keyword_rules",
    ),
    ".mining": (
        "KeywordRuleSet", "mine_frequent_itemsets", "mine_keyword_rules",
        "ALGORITHMS",
    ),
}
#: public name → its module
_EXPORTS = {name: module for module, names in _SUBMODULES.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = importlib.import_module(_EXPORTS[name], __name__)
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(module, name)
    return value
