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
"""

from .apriori import apriori, apriori_naive, generate_candidates
from .bitmap import PackedBitmaps, popcount
from .eclat import eclat
from .fpgrowth import fpgrowth
from .items import Item, ItemVocabulary, render_itemset
from .interest import (
    ExtendedMetrics,
    ExtendedMetricsColumns,
    cosine,
    extended_metrics,
    extended_metrics_columns,
    extended_metrics_table,
    imbalance_ratio,
    jaccard,
    kulczynski,
)
from .itemsets import FrequentItemsets
from .metrics import RuleMetrics, compute_metrics, confidence, conviction, leverage, lift
from .negative import NegativeRule, mine_negative_keyword_rules
from .patterns import closed_itemsets, maximal_itemsets, support_of_from_closed
from .mining import (
    ALGORITHMS,
    KeywordRuleSet,
    MiningConfig,
    mine_frequent_itemsets,
    mine_keyword_rules,
    mine_rules,
)
from .pruning import (
    CondenseConfig,
    PruningConfig,
    PruningReport,
    keyword_rules,
    prune_rule_table,
    prune_rules,
)
from .rules import AssociationRule, generate_rule_table, generate_rules
from .ruletable import RuleTable
from .transactions import TransactionDatabase

__all__ = [
    "Item",
    "ItemVocabulary",
    "render_itemset",
    "TransactionDatabase",
    "PackedBitmaps",
    "popcount",
    "fpgrowth",
    "apriori",
    "apriori_naive",
    "generate_candidates",
    "eclat",
    "FrequentItemsets",
    "closed_itemsets",
    "maximal_itemsets",
    "support_of_from_closed",
    "NegativeRule",
    "mine_negative_keyword_rules",
    "ExtendedMetrics",
    "ExtendedMetricsColumns",
    "extended_metrics",
    "extended_metrics_columns",
    "extended_metrics_table",
    "jaccard",
    "cosine",
    "kulczynski",
    "imbalance_ratio",
    "RuleMetrics",
    "compute_metrics",
    "confidence",
    "lift",
    "leverage",
    "conviction",
    "AssociationRule",
    "RuleTable",
    "generate_rules",
    "generate_rule_table",
    "PruningConfig",
    "CondenseConfig",
    "PruningReport",
    "prune_rules",
    "prune_rule_table",
    "keyword_rules",
    "MiningConfig",
    "KeywordRuleSet",
    "mine_frequent_itemsets",
    "mine_rules",
    "mine_keyword_rules",
    "ALGORITHMS",
]
