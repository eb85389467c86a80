"""Rule-based classification from mined association rules.

The paper's takeaways repeatedly point from *rules* to *predictors*:

* PAI underutilisation: "a prediction model can be used to identify jobs
  that tend to underutilize GPU cores at the job submission stage" —
  the antecedents of the C-rules are submission-time features;
* PAI failure: "the presence of multiple strong rules indicates that a
  simple rule-based or tree-based classifier will suffice";
* SuperCloud/Philly failure: "more complex models such as neural networks
  will be needed" — i.e. a rule-based classifier should do *poorly*.

:class:`RuleClassifier` implements the classic CBA-style scheme: keep the
rules whose consequent is exactly the target item, order them by
(confidence, lift, support), and classify a transaction as positive if
any kept rule's antecedent is contained in it.  The default class is
negative.  This is deliberately the *simple* classifier the paper talks
about — the point of the prediction bench is to measure where it is and
is not sufficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..core.items import Item, as_item
from ..core.ruletable import RuleTable
from ..core.transactions import TransactionDatabase

__all__ = ["RuleClassifier", "ClassifierRule"]


@dataclass(frozen=True, slots=True)
class ClassifierRule:
    """One decision rule: antecedent item ids plus its training metrics."""

    antecedent_ids: frozenset[int]
    antecedent: frozenset[Item]
    confidence: float
    lift: float
    support: float

    def __str__(self) -> str:
        items = ", ".join(i.render() for i in sorted(self.antecedent))
        return f"[{items}] (conf={self.confidence:.2f}, lift={self.lift:.2f})"


class RuleClassifier:
    """Predict a target item from association rules (CBA-style)."""

    def __init__(self, target: Item | str, rules: Sequence[ClassifierRule]):
        self.target = as_item(target)
        #: strongest-first decision list
        self.rules = sorted(
            rules, key=lambda r: (-r.confidence, -r.lift, -r.support)
        )

    def __len__(self) -> int:
        return len(self.rules)

    def __repr__(self) -> str:
        return f"RuleClassifier(target={self.target.render()!r}, n_rules={len(self)})"

    # -- construction ----------------------------------------------------------
    @classmethod
    def from_table(
        cls,
        table: RuleTable,
        target: Item | str,
        allowed_features: Iterable[str] | None = None,
        min_confidence: float = 0.0,
    ) -> "RuleClassifier":
        """Build from a mined rule table.

        Keeps rules whose consequent is exactly ``{target}``.  With
        *allowed_features*, antecedents using any other feature are
        dropped — pass the submission-time feature names to get the
        paper's "predict at the job submission stage" setting.  The
        filters run on the table's columns; only the surviving rows
        become decision rules, in table order before the stable
        strongest-first sort.
        """
        target_item = as_item(target)
        vocab = table.vocabulary
        target_id = vocab.get_id(target_item)
        keep = table.confidence >= min_confidence
        if target_id is None:
            keep[:] = False
        else:
            keep &= (table.cons_sizes() == 1) & table.contains_id(target_id)[1]
        if allowed_features is not None:
            allowed = set(allowed_features)
            barred = np.fromiter(
                (item.feature not in allowed for item in vocab), dtype=bool, count=len(vocab)
            )
            rows = np.repeat(np.arange(len(table)), table.ant_sizes())
            keep &= np.bincount(rows, barred[table.ant_ids], minlength=len(table)) == 0
        kept = []
        for i in np.flatnonzero(keep).tolist():
            ids = frozenset(table.ant_row(i).tolist())
            kept.append(
                ClassifierRule(
                    antecedent_ids=ids,
                    antecedent=vocab.items_of(ids),
                    confidence=float(table.confidence[i]),
                    lift=float(table.lift[i]),
                    support=float(table.support[i]),
                )
            )
        kept.sort(key=lambda r: (-r.confidence, -r.lift, -r.support))
        return cls(target_item, kept)

    def predict(self, db: TransactionDatabase) -> np.ndarray:
        """Vectorised prediction for every transaction of *db*.

        Each decision rule is one AND over packed occurrence bitsets;
        the classifier is the OR of its rules, unpacked to booleans once
        at the end.
        """
        n = len(db)
        out = np.zeros(n, dtype=bool)
        if not self.rules:
            return out
        bitmaps = db.bitmaps()
        n_items = db.n_items
        acc = None
        for rule in self.rules:
            ids = sorted(rule.antecedent_ids)
            if any(i >= n_items for i in ids):
                continue  # item never occurs in this database
            mask = bitmaps.and_words(ids)
            acc = mask if acc is None else acc | mask
        if acc is None:
            return out
        return bitmaps.to_bool(acc)

    def labels(self, db: TransactionDatabase) -> np.ndarray:
        """Ground-truth labels: does the transaction contain the target?"""
        target_id = db.vocabulary.get_id(self.target)
        if target_id is None:
            return np.zeros(len(db), dtype=bool)
        bitmaps = db.bitmaps()
        return bitmaps.to_bool(bitmaps.row(target_id))
