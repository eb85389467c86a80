"""High-level mining orchestration: database → frequent itemsets → rules.

This module wires the pieces of Sec. III together behind one entry point:

1. frequent-itemset extraction (FP-Growth, min-support 5 %,
   max length 5);
2. rule generation with the minimum-lift filter (1.5);
3. optional keyword restriction and Conditions 1–4 pruning.

:class:`MiningConfig` carries every knob with the paper's defaults, so the
three case studies run with literally identical parameters — one of the
paper's headline claims ("our empirical studies across three distinct
datacenter traces consistently applied identical support and lift
thresholds").
"""

from __future__ import annotations

import numpy as np

from .config import MiningConfig
from .fpgrowth import fpgrowth
from .items import Item, as_item
from .itemsets import FrequentItemsets
from .pruning import PruningReport, prune_candidates
from .rules import AssociationRule, rule_candidates
from .ruletable import RuleTable
from .transactions import TransactionDatabase

__all__ = [
    "MiningConfig",
    "KeywordRuleSet",
    "mine_frequent_itemsets",
    "mine_keyword_rules",
    "keyword_rule_set",
]


class KeywordRuleSet:
    """The outcome of a keyword-centric mining pass.

    ``cause`` rules carry the keyword in the consequent ("C" rows of the
    paper's tables); ``characteristic`` rules carry it in the antecedent
    ("A" rows).  ``table`` holds the surviving rules in columnar form
    (:class:`RuleTable`, canonical order) when :func:`keyword_rule_set`
    built the set (``n_rules_before_pruning`` counts the candidates it
    pruned); persistence and serving consume it without objects.

    Built from a *table* alone, ``cause`` and ``characteristic`` are
    views of it, materialised as rule objects on first access; explicit
    tuples are taken as given.  Equality compares keyword, both rule
    tuples, report and input count, like the tuples-only form always did.
    """

    __slots__ = (
        "keyword", "report", "n_rules_before_pruning", "table",
        "_cause", "_characteristic",
    )

    def __init__(
        self,
        keyword: Item,
        cause: tuple[AssociationRule, ...] | None = None,
        characteristic: tuple[AssociationRule, ...] | None = None,
        report: PruningReport | None = None,
        n_rules_before_pruning: int = 0,
        table: RuleTable | None = None,
    ):
        self.keyword = keyword
        self.report = report if report is not None else PruningReport()
        self.n_rules_before_pruning = n_rules_before_pruning
        self.table = table
        if table is None:  # nothing to derive the rule sets from
            cause = () if cause is None else cause
            characteristic = () if characteristic is None else characteristic
        self._cause = None if cause is None else tuple(cause)
        self._characteristic = (
            None if characteristic is None else tuple(characteristic)
        )

    def _side_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Table rows with the keyword in the consequent / the antecedent."""
        table = self.table
        kw_id = None if table is None else table.vocabulary.get_id(self.keyword)
        if kw_id is None:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        in_ant, in_cons = table.contains_id(kw_id)
        return np.flatnonzero(in_cons), np.flatnonzero(in_ant)

    @property
    def cause(self) -> tuple[AssociationRule, ...]:
        if self._cause is None:
            rows, _ = self._side_rows()
            self._cause = tuple(map(self.table.__getitem__, rows.tolist()))
        return self._cause

    @property
    def characteristic(self) -> tuple[AssociationRule, ...]:
        if self._characteristic is None:
            _, rows = self._side_rows()
            self._characteristic = tuple(map(self.table.__getitem__, rows.tolist()))
        return self._characteristic

    @property
    def all_rules(self) -> tuple[AssociationRule, ...]:
        return self.cause + self.characteristic

    def __len__(self) -> int:
        cause_rows, characteristic_rows = self._side_rows()
        n_cause = len(cause_rows if self._cause is None else self._cause)
        n_characteristic = len(
            characteristic_rows if self._characteristic is None else self._characteristic
        )
        return n_cause + n_characteristic

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KeywordRuleSet):
            return NotImplemented
        return (
            self.keyword == other.keyword
            and self.cause == other.cause
            and self.characteristic == other.characteristic
            and self.report == other.report
            and self.n_rules_before_pruning == other.n_rules_before_pruning
        )

    __hash__ = None  # type: ignore[assignment]  # mutable report, as before

    def __str__(self) -> str:
        return (
            f"KeywordRuleSet(keyword={self.keyword.render()!r}, "
            f"cause={len(self.cause)}, characteristic={len(self.characteristic)})"
        )

    __repr__ = __str__


def mine_frequent_itemsets(
    db: TransactionDatabase, config: MiningConfig = MiningConfig()
) -> FrequentItemsets:
    """Frequent itemsets of *db*: one serial FP-Growth pass.

    Every mining path runs this pass (the engine's ``mine`` stage, the
    streaming remine, the one-call helpers); nothing is kept between
    calls, so mining a database twice costs two passes.
    """
    counts = fpgrowth(db, config.min_support, config.max_len)
    return FrequentItemsets(
        counts,
        db.vocabulary,
        len(db),
        min_support=config.min_support,
        max_len=config.max_len,
    )


def keyword_rule_set(
    itemsets: FrequentItemsets,
    keyword: Item | str,
    config: MiningConfig = MiningConfig(),
) -> KeywordRuleSet:
    """One keyword's rules: enumerate + score → Conditions 1–4 on split
    entries → materialise + sort only the survivors.  The same rule set
    as ``prune_rule_table(generate_rule_table(...))``; every keyword path
    runs this."""
    kw = as_item(keyword)
    kw_id = itemsets.vocabulary.get_id(kw)
    if kw_id is None:
        # keyword never appears in the trace; nothing to analyse
        return KeywordRuleSet(kw)
    candidates = rule_candidates(
        itemsets,
        min_lift=config.min_lift,
        min_confidence=config.min_confidence,
        keyword_ids=(kw_id,),
    )
    kept, report = prune_candidates(candidates, kw_id, config.pruning)
    return KeywordRuleSet(
        keyword=kw,
        report=report,
        n_rules_before_pruning=len(candidates.entry),
        table=candidates.table(kept),
    )


def mine_keyword_rules(
    db: TransactionDatabase,
    keyword: Item | str,
    config: MiningConfig = MiningConfig(),
    itemsets: FrequentItemsets | None = None,
) -> KeywordRuleSet:
    """Full keyword workflow: mine → filter → prune → split into C/A rules.

    Passing a precomputed *itemsets* lets a caller amortise one mining
    pass over several keywords (the case studies investigate both GPU
    underutilisation and failure on the same trace).
    """
    if itemsets is None:
        itemsets = mine_frequent_itemsets(db, config)
    return keyword_rule_set(itemsets, keyword, config)
