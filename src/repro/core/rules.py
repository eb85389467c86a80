"""Association-rule generation from frequent itemsets (Sec. III-B/D).

For every frequent itemset ``Z`` with ``|Z| ≥ 2``, each non-empty proper
subset ``X ⊂ Z`` yields a candidate rule ``X ⇒ Z∖X``.  The paper filters
candidates by a minimum lift of 1.5 ("the rules we generate are 50% more
likely to appear together than expected assuming the rule antecedent and
consequent are independent"); a minimum confidence can be layered on top.

All supports needed to score a rule are available from the frequent-itemset
table itself (every subset of a frequent itemset is frequent), so rule
generation never rescans the database.  A table that is not
downward-closed — a hand-built or filtered table can drop a subset and
keep its superset — cannot score every split; generation raises
``ValueError`` on it instead of dropping rules.

:func:`rule_candidates` is the columnar kernel.  It reads the pass's
one :class:`~repro.core.itemsets.ItemsetView` (built once per
:class:`FrequentItemsets`, shared by every keyword), whose split table
holds, for every itemset ``Z`` and pattern ``P``, the row of the
sub-itemset ``P`` selects.  A keyword's candidates are the entries of
its surface itemsets, one ``csr_range_gather``: the antecedent is the
entry's row, the consequent the row of the complementary pattern, the
joint count ``Z``'s.  All metrics are scored in one vectorised batch and
the min-lift / min-confidence filters are boolean masks.  Conditions 1–4
run on the unsorted :class:`RuleCandidates`, and
:meth:`RuleCandidates.table` gathers and sorts only the rows asked for:
one ``np.lexsort`` over the metrics and the integer ranks of those rows'
tie-break strings.  No :class:`AssociationRule` object is built per
rule, and no subset is searched for per keyword.  The powerset-split
oracle it is tested against bit for bit lives in ``tests/oracles.py``.
:func:`generate_rule_table` is the one entry point; a caller that wants
:class:`AssociationRule` objects iterates the table it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..obs import kernel_timer
from .items import Item, render_itemset
from .itemsets import FrequentItemsets, ItemsetView
from .metrics import RuleMetrics
from .ruletable import METRIC_COLUMNS, RuleTable, csr_range_gather, rows_containing

__all__ = [
    "AssociationRule",
    "RuleCandidates",
    "generate_rule_table",
    "rule_candidates",
    "score_counts",
]


@dataclass(frozen=True, slots=True)
class AssociationRule:
    """An implication ``antecedent ⇒ consequent`` with its quality metrics.

    A view of one :class:`RuleTable` row, for presentation: the id-space
    fields (``antecedent_ids`` / ``consequent_ids``) are the row's ids in
    that table's vocabulary, the frozensets of :class:`Item` their items.
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


def generate_rule_table(
    itemsets: FrequentItemsets,
    min_lift: float = 1.5,
    min_confidence: float = 0.0,
    keyword_ids: Iterable[int] | None = None,
) -> RuleTable:
    """Every candidate of :func:`rule_candidates` as a table, sorted by
    ``(-lift, -confidence, -support, antecedent, consequent)``: the
    per-keyword composition (:func:`~repro.core.mining.keyword_rule_set`)
    without its prune step."""
    return rule_candidates(itemsets, min_lift, min_confidence, keyword_ids).table()


@dataclass(frozen=True, slots=True, eq=False)
class RuleCandidates:
    """The scored, filtered splits of one generation call, unsorted:
    candidate ``i`` is entry ``entry[i]`` of *view*'s split table, with
    side rows ``ant_rows[i]``/``cons_rows[i]`` and its metric values."""

    view: ItemsetView
    entry: np.ndarray
    ant_rows: np.ndarray
    cons_rows: np.ndarray
    support: np.ndarray
    confidence: np.ndarray
    lift: np.ndarray
    leverage: np.ndarray
    conviction: np.ndarray

    def table(self, rows: np.ndarray | None = None) -> RuleTable:
        """Candidates *rows* (default: all) as a table in canonical order,
        keeping their tie-break strings and split-table entries."""
        if rows is None:
            rows = np.arange(len(self.entry), dtype=np.int64)
        view = self.view
        n = len(rows)
        with kernel_timer("rules-sort"):
            strings, rank = view.tie_break(
                np.concatenate([self.ant_rows[rows], self.cons_rows[rows]])
            )
            order = np.lexsort((
                rank[n:], rank[:n],
                -self.support[rows], -self.confidence[rows], -self.lift[rows],
            ))
            rows = rows[order]
        ant_indptr, ant_flat = csr_range_gather(view.indptr, self.ant_rows[rows])
        cons_indptr, cons_flat = csr_range_gather(view.indptr, self.cons_rows[rows])
        table = RuleTable(
            view.vocabulary,
            ant_indptr, view.ids[ant_flat],
            cons_indptr, view.ids[cons_flat],
            *(getattr(self, name)[rows] for name in METRIC_COLUMNS),
        )
        table._sort_strings_cache = (strings[:n][order], strings[n:][order])
        table._splits = (view, self.entry[rows])
        return table


def rule_candidates(
    itemsets: FrequentItemsets,
    min_lift: float = 1.5,
    min_confidence: float = 0.0,
    keyword_ids: Iterable[int] | None = None,
) -> RuleCandidates:
    """Every split of the (keyword) itemsets passing the lift and
    confidence floors.  Raises ``ValueError`` if a split's side is
    missing (the table is not downward-closed)."""
    _validate_params(min_lift, min_confidence)
    n = itemsets.n_transactions

    with kernel_timer("rules-enumerate"):
        view = itemsets.view()
        wanted = (view.lengths >= 2) & (n > 0)
        if keyword_ids is not None:
            has_keyword = np.zeros(len(view), dtype=bool)
            for kw_id in keyword_ids:
                has_keyword |= rows_containing(view.indptr, view.ids, kw_id)
            wanted &= has_keyword
        # every split of a surface itemset is one entry of its lattice row;
        # the consequent is the complementary pattern, mirrored in the row
        _, entry = csr_range_gather(view.split_indptr, np.flatnonzero(wanted))
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

    with kernel_timer("rules-score"):
        metrics = score_counts(
            view.counts[itemset], view.counts[ant_rows], view.counts[cons_rows], n
        )
        keep = np.flatnonzero((metrics[2] >= min_lift) & (metrics[1] >= min_confidence))
    return RuleCandidates(
        view, entry[keep], ant_rows[keep], cons_rows[keep],
        *(column[keep] for column in metrics),
    )


def score_counts(
    c_xy: np.ndarray, c_x: np.ndarray, c_y: np.ndarray, n: int
) -> tuple[np.ndarray, ...]:
    """The metric columns (``METRIC_COLUMNS`` order) of rules ``X ⇒ Y``
    from the counts of ``X ∪ Y``, ``X`` and ``Y`` in *n* transactions."""
    supp_xy = c_xy.astype(np.float64) / n
    supp_x = c_x.astype(np.float64) / n
    supp_y = c_y.astype(np.float64) / n
    denom = supp_x * supp_y
    with np.errstate(divide="ignore", invalid="ignore"):
        conf = np.where(supp_x > 0.0, supp_xy / supp_x, 0.0)
        lift = np.where(denom > 0.0, supp_xy / denom, 0.0)
        conviction = np.where(conf >= 1.0, np.inf, (1.0 - supp_y) / (1.0 - conf))
    return supp_xy, conf, lift, supp_xy - denom, conviction
