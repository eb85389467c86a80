"""Association-rule mining core — the paper's primary contribution.

Layers, bottom to top:

* :mod:`repro.core.items` / :mod:`repro.core.transactions` — interned
  items and the CSR transaction database.
* :mod:`repro.core.bitmap` — packed uint64 occurrence bitsets, the
  counting kernel every miner shares.
* :mod:`repro.core.fpgrowth` — the frequent-itemset miner;
  :mod:`repro.core.apriori` and :mod:`repro.core.eclat` are the
  Sec. III-C baselines it is compared with, imported from their modules.
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
"""

import importlib

#: module (relative to this package) → the public names it defines
_SUBMODULES = {
    ".items": ("Item", "ItemVocabulary", "render_itemset"),
    ".transactions": ("TransactionDatabase",),
    ".bitmap": ("PackedBitmaps", "popcount"),
    ".itemsets": ("FrequentItemsets",),
    ".metrics": ("RuleMetrics",),
    ".rules": ("AssociationRule", "generate_rule_table"),
    ".ruletable": ("RuleTable",),
    ".config": ("MiningConfig", "PruningConfig"),
    ".pruning": ("PruningReport", "prune_rule_table"),
    ".mining": (
        "KeywordRuleSet", "mine_frequent_itemsets", "mine_keyword_rules",
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
