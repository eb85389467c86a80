"""Association-rule generation from frequent itemsets (Sec. III-B/D).

For every frequent itemset ``Z`` with ``|Z| ≥ 2``, each non-empty proper
subset ``X ⊂ Z`` yields a candidate rule ``X ⇒ Z∖X``.  The paper filters
candidates by a minimum lift of 1.5 ("the rules we generate are 50% more
likely to appear together than expected assuming the rule antecedent and
consequent are independent"); a minimum confidence can be layered on top.

All supports needed to score a rule are available from the frequent-itemset
table itself (every subset of a frequent itemset is frequent), so rule
generation never rescans the database.  A table that is not
downward-closed — a differentially private, closed or maximal itemset
table can drop a subset and keep its superset — cannot score every
split; generation raises ``ValueError`` on it instead of dropping rules.

:func:`generate_rule_table` is the columnar kernel.  It reads the pass's
one :class:`~repro.core.itemsets.ItemsetView` (built once per
:class:`FrequentItemsets`, shared by every keyword), whose split table
holds, for every itemset ``Z`` and pattern ``P``, the row of the
sub-itemset ``P`` selects.  A keyword's candidates are the entries of
its surface itemsets, one ``csr_range_gather``: the antecedent is the
entry's row, the consequent the row of the complementary pattern, the
joint count ``Z``'s.  All metrics are scored in one vectorised batch,
the min-lift / min-confidence filters are boolean masks, and the
canonical order is one ``np.lexsort`` over the metrics and the view's
integer string ranks.  No :class:`AssociationRule` object or tie-break
string is built per rule, and no subset is searched for per keyword.
Returns a :class:`~repro.core.ruletable.RuleTable` that keeps each
row's split-table entry (its split provenance) for Conditions 1–4.
The powerset-split oracle it is tested against bit for bit lives in
``tests/oracles.py``.

:func:`generate_rules` keeps the historical list-of-objects API by
materialising the kernel's table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .bitmap import kernel_timer
from .items import Item, render_itemset
from .itemsets import FrequentItemsets
from .metrics import RuleMetrics
from .ruletable import RuleTable, csr_range_gather, rows_containing

__all__ = [
    "AssociationRule",
    "generate_rules",
    "generate_rule_table",
]


@dataclass(frozen=True, slots=True)
class AssociationRule:
    """An implication ``antecedent ⇒ consequent`` with its quality metrics.

    The id-space fields (``antecedent_ids`` / ``consequent_ids``) are what
    the pruning machinery compares; the decoded frozensets of
    :class:`Item` are for presentation.
    """

    antecedent: frozenset[Item]
    consequent: frozenset[Item]
    antecedent_ids: frozenset[int]
    consequent_ids: frozenset[int]
    support: float
    confidence: float
    lift: float
    leverage: float
    conviction: float

    def __post_init__(self) -> None:
        if not self.antecedent_ids or not self.consequent_ids:
            raise ValueError("rule sides must be non-empty")
        if self.antecedent_ids & self.consequent_ids:
            raise ValueError("antecedent and consequent must be disjoint")

    def __str__(self) -> str:
        return (
            f"{render_itemset(self.antecedent)} => {render_itemset(self.consequent)}"
            f"  [supp={self.support:.3f}, conf={self.confidence:.3f}, lift={self.lift:.2f}]"
        )

    @property
    def items(self) -> frozenset[Item]:
        """Every item appearing in the rule."""
        return self.antecedent | self.consequent

    @property
    def item_ids(self) -> frozenset[int]:
        return self.antecedent_ids | self.consequent_ids

    @property
    def length(self) -> int:
        """Total number of items across both sides."""
        return len(self.antecedent_ids) + len(self.consequent_ids)

    def contains(self, item: Item | int) -> bool:
        """True if *item* (Item or id) appears on either side."""
        if isinstance(item, int):
            return item in self.antecedent_ids or item in self.consequent_ids
        return item in self.antecedent or item in self.consequent

    def metrics(self) -> RuleMetrics:
        return RuleMetrics(
            support=self.support,
            confidence=self.confidence,
            lift=self.lift,
            leverage=self.leverage,
            conviction=self.conviction,
        )

    def as_row(self) -> dict[str, object]:
        """Flat dict form, used by report tables and CSV export."""
        return {
            "antecedent": ", ".join(i.render() for i in sorted(self.antecedent)),
            "consequent": ", ".join(i.render() for i in sorted(self.consequent)),
            "support": round(self.support, 6),
            "confidence": round(self.confidence, 6),
            "lift": round(self.lift, 6),
            "leverage": round(self.leverage, 6),
            "conviction": self.conviction,
        }


def _validate_params(min_lift: float, min_confidence: float) -> None:
    if min_lift < 0:
        raise ValueError("min_lift must be >= 0")
    if not 0.0 <= min_confidence <= 1.0:
        raise ValueError("min_confidence must be in [0, 1]")


def _not_downward_closed(
    itemsets: FrequentItemsets, first: frozenset[int], n_missing: int
) -> ValueError:
    """The error generation raises when a split's side is missing."""
    return ValueError(
        "itemset table is not downward-closed: "
        f"{n_missing} antecedent/consequent split(s) miss a subset's "
        f"support, first in itemset {itemsets.render(first)}"
    )


def generate_rules(
    itemsets: FrequentItemsets,
    min_lift: float = 1.5,
    min_confidence: float = 0.0,
    keyword_ids: Iterable[int] | None = None,
) -> list[AssociationRule]:
    """Enumerate and score rules from *itemsets* (list-of-objects API).

    Parameters
    ----------
    itemsets:
        Output of a mining pass; supplies all subset supports.
    min_lift:
        Keep rules with ``lift ≥ min_lift`` (paper default 1.5).
    min_confidence:
        Optional extra confidence floor (paper relies on lift alone).
    keyword_ids:
        If given, only rules containing at least one of these item ids are
        emitted — the keyword-relevance restriction of Sec. III-D, applied
        during generation to avoid materialising irrelevant rules.

    Rules are returned sorted by (lift, confidence, support) descending,
    ties broken by rendered text so output order is deterministic.  This
    is a thin wrapper over :func:`generate_rule_table`; the columnar table
    it materialises from is the canonical representation.
    """
    return generate_rule_table(
        itemsets,
        min_lift=min_lift,
        min_confidence=min_confidence,
        keyword_ids=keyword_ids,
    ).to_rules()


def generate_rule_table(
    itemsets: FrequentItemsets,
    min_lift: float = 1.5,
    min_confidence: float = 0.0,
    keyword_ids: Iterable[int] | None = None,
) -> RuleTable:
    """Columnar rule generation: enumerate, score, filter and sort as arrays.

    Every non-empty proper split of each itemset is scored with IEEE-double
    metric arithmetic and sorted by ``(-lift, -confidence, -support,
    antecedent, consequent)``, but no per-rule object or string is
    created: the result is a :class:`RuleTable` whose rows are exactly the
    surviving rules, read off the split table of the pass's one
    :class:`~repro.core.itemsets.ItemsetView`, each row with its entry.
    Raises ``ValueError`` if a split's side is missing from the table
    (the table is not downward-closed).
    """
    _validate_params(min_lift, min_confidence)
    vocabulary = itemsets.vocabulary
    n = itemsets.n_transactions
    if n == 0 or not itemsets.counts:
        return RuleTable.empty(vocabulary)

    with kernel_timer("rules-enumerate"):
        view = itemsets.view()
        wanted = view.lengths >= 2
        if keyword_ids is not None:
            has_keyword = np.zeros(len(view), dtype=bool)
            for kw_id in keyword_ids:
                has_keyword |= rows_containing(view.indptr, view.ids, kw_id)
            wanted &= has_keyword
        surface = np.flatnonzero(wanted)
        if not surface.size:
            return RuleTable.empty(vocabulary)
        # every split of a surface itemset is one entry of its lattice row;
        # the consequent is the complementary pattern, mirrored in the row
        _, entry = csr_range_gather(view.split_indptr, surface)
        itemset = view.owner[entry]
        ant_rows = view.sub[entry]
        cons_rows = view.sub[
            view.split_indptr[itemset] + view.split_indptr[itemset + 1] - 1 - entry
        ]
        missing = itemset[(ant_rows < 0) | (cons_rows < 0)]
        if missing.size:
            first = int(missing.min())
            ids = view.ids[view.indptr[first]:view.indptr[first + 1]]
            raise _not_downward_closed(itemsets, frozenset(ids.tolist()), missing.size)
        cxy = view.counts[itemset]

    # ---- score every candidate in one batch; filter before materialising ----
    with kernel_timer("rules-score"):
        supp_xy = cxy.astype(np.float64) / n
        supp_x = view.counts[ant_rows].astype(np.float64) / n
        supp_y = view.counts[cons_rows].astype(np.float64) / n
        denom = supp_x * supp_y
        with np.errstate(divide="ignore", invalid="ignore"):
            conf = np.where(supp_x > 0.0, supp_xy / supp_x, 0.0)
            lift_arr = np.where(denom > 0.0, supp_xy / denom, 0.0)
            conviction_arr = np.where(
                conf >= 1.0, np.inf, (1.0 - supp_y) / (1.0 - conf)
            )
        leverage_arr = supp_xy - denom
        keep = np.flatnonzero((lift_arr >= min_lift) & (conf >= min_confidence))

    # ---- canonical deterministic order: the sorted-item tie-break
    # strings enter as the view's integer ranks ----
    with kernel_timer("rules-sort"):
        keep = keep[np.lexsort((
            view.rank[cons_rows[keep]], view.rank[ant_rows[keep]],
            -supp_xy[keep], -conf[keep], -lift_arr[keep],
        ))]
        ant_rows = ant_rows[keep]
        cons_rows = cons_rows[keep]

    # ---- survivors: CSR id rows gathered from the view ----
    ant_indptr, ant_flat = csr_range_gather(view.indptr, ant_rows)
    cons_indptr, cons_flat = csr_range_gather(view.indptr, cons_rows)
    table = RuleTable(
        vocabulary,
        ant_indptr, view.ids[ant_flat],
        cons_indptr, view.ids[cons_flat],
        supp_xy[keep], conf[keep], lift_arr[keep],
        leverage_arr[keep], conviction_arr[keep],
    )
    table._sort_strings_cache = (view.strings[ant_rows], view.strings[cons_rows])
    table._splits = (view, entry[keep])
    return table
