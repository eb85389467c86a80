"""Association-rule generation from frequent itemsets (Sec. III-B/D).

For every frequent itemset ``Z`` with ``|Z| ≥ 2``, each non-empty proper
subset ``X ⊂ Z`` yields a candidate rule ``X ⇒ Z∖X``.  The paper filters
candidates by a minimum lift of 1.5 ("the rules we generate are 50% more
likely to appear together than expected assuming the rule antecedent and
consequent are independent"); a minimum confidence can be layered on top.

All supports needed to score a rule are available from the frequent-itemset
table itself (every subset of a frequent itemset is frequent), so rule
generation never rescans the database.

Two implementations coexist:

* :func:`generate_rule_table` — the columnar kernel.  It reads the
  pass's one :class:`~repro.core.itemsets.ItemsetView` (built once per
  :class:`FrequentItemsets`, shared by every keyword).  Itemsets are
  grouped by length; every antecedent/consequent split of a
  length-``L`` class is one bit-pattern applied to an ``(M, L)`` id
  matrix, subset supports come from the view's sorted packed keys via
  ``np.searchsorted``, all metrics are scored in one vectorised batch,
  the min-lift / min-confidence / keyword filters are boolean masks, and
  the canonical order is one ``np.lexsort`` over the metrics and the
  view's integer string ranks.  No :class:`AssociationRule` object or
  tie-break string is built per rule.  Returns a
  :class:`~repro.core.ruletable.RuleTable`.
* :func:`generate_rules_legacy` — the original per-split object path,
  retained verbatim as the correctness oracle for the CI equality sweep.

:func:`generate_rules` keeps the historical list-of-objects API by
materialising the kernel's table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

import numpy as np

from .bitmap import kernel_timer, record_kernel
from .items import Item, ItemVocabulary, render_itemset
from .itemsets import FrequentItemsets, ItemsetView
from .metrics import RuleMetrics, compute_metrics
from .ruletable import RuleTable, csr_range_gather, rows_containing

__all__ = [
    "AssociationRule",
    "generate_rules",
    "generate_rule_table",
    "generate_rules_legacy",
]

#: kernel counter fed by both paths when an incomplete (SON-partitioned)
#: itemset table forces candidate splits to be dropped; ``calls`` carries
#: the number of dropped candidates so ``--profile`` surfaces them.
SKIPPED_KERNEL = "rules-skipped-lookups"


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


def _make_rule(
    antecedent_ids: frozenset[int],
    consequent_ids: frozenset[int],
    metrics: RuleMetrics,
    vocabulary: ItemVocabulary,
) -> AssociationRule:
    return AssociationRule(
        antecedent=vocabulary.items_of(antecedent_ids),
        consequent=vocabulary.items_of(consequent_ids),
        antecedent_ids=antecedent_ids,
        consequent_ids=consequent_ids,
        support=metrics.support,
        confidence=metrics.confidence,
        lift=metrics.lift,
        leverage=metrics.leverage,
        conviction=metrics.conviction,
    )


def _validate_params(min_lift: float, min_confidence: float) -> None:
    if min_lift < 0:
        raise ValueError("min_lift must be >= 0")
    if not 0.0 <= min_confidence <= 1.0:
        raise ValueError("min_confidence must be in [0, 1]")


def generate_rules(
    itemsets: FrequentItemsets,
    min_lift: float = 1.5,
    min_confidence: float = 0.0,
    keyword_ids: Iterable[int] | None = None,
    expand_only: Iterable[frozenset[int]] | None = None,
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
    expand_only:
        If given, only these itemsets are split into rules (subset
        supports still come from the full table) — the hook the parallel
        rule generator uses to shard work across processes.

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
        expand_only=expand_only,
    ).to_rules()


def generate_rule_table(
    itemsets: FrequentItemsets,
    min_lift: float = 1.5,
    min_confidence: float = 0.0,
    keyword_ids: Iterable[int] | None = None,
    expand_only: Iterable[frozenset[int]] | None = None,
) -> RuleTable:
    """Columnar rule generation: enumerate, score, filter and sort as arrays.

    Semantics are identical to :func:`generate_rules_legacy` (same
    candidate set, same IEEE-double metric arithmetic, same deterministic
    output order) but no per-rule object or string is created: the
    result is a :class:`RuleTable` whose rows are exactly the surviving
    rules, read off the pass's one :class:`~repro.core.itemsets.ItemsetView`.
    Candidate splits whose subset supports are missing from an incomplete
    (SON-partitioned) table are counted in ``table.n_skipped_lookups``
    and surfaced through the ``rules-skipped-lookups`` kernel counter.
    """
    _validate_params(min_lift, min_confidence)
    vocabulary = itemsets.vocabulary
    n = itemsets.n_transactions
    if n == 0 or not itemsets.counts:
        return RuleTable.empty(vocabulary)

    with kernel_timer("rules-enumerate"):
        view = itemsets.view()
        if expand_only is not None:
            surface = view.rows_of(expand_only)
        else:
            surface = np.arange(len(view), dtype=np.int64)
        wanted = view.lengths[surface] >= 2
        if keyword_ids is not None:
            has_keyword = np.zeros(len(view), dtype=bool)
            for kw_id in keyword_ids:
                has_keyword |= rows_containing(view.indptr, view.ids, kw_id)
            wanted &= has_keyword[surface]
        surface = surface[wanted]
        if not surface.size:
            return RuleTable.empty(vocabulary)
        cxy, ant_rows, cons_rows, n_skipped = _enumerate_splits(view, surface)

    if n_skipped:
        record_kernel(SKIPPED_KERNEL, 0.0, n_skipped)
    if cxy.size == 0:
        empty = RuleTable.empty(vocabulary)
        empty.n_skipped_lookups = n_skipped
        return empty

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

    # ---- canonical deterministic order: the legacy tie-break strings
    # enter as the view's integer ranks ----
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
        n_skipped_lookups=n_skipped,
    )
    table._sort_strings_cache = (view.strings[ant_rows], view.strings[cons_rows])
    return table


def _enumerate_splits(
    view: ItemsetView, surface: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Every antecedent/consequent split of the *surface* rows.

    Itemsets are grouped by length; each split of a length-``L`` group is
    one bit pattern over its ``(M, L)`` id columns, and both sides' rows
    are found by one binary search each (:meth:`ItemsetView.find`).
    Returns ``(count_xy, antecedent rows, consequent rows, n_skipped)``.
    """
    lengths = view.lengths[surface]
    cxy_parts: list[np.ndarray] = []
    ant_parts: list[np.ndarray] = []
    cons_parts: list[np.ndarray] = []
    n_skipped = 0
    for length in np.unique(lengths).tolist():
        rows = surface[lengths == length]
        base = view.padded[rows, :length]
        cnt = view.counts[rows]
        for pattern in range(1, (1 << length) - 1):
            cols_a = [k for k in range(length) if (pattern >> k) & 1]
            cols_c = [k for k in range(length) if not (pattern >> k) & 1]
            rows_a, valid_a = view.find(base[:, cols_a])
            rows_c, valid_c = view.find(base[:, cols_c])
            valid = valid_a & valid_c
            n_invalid = int(np.count_nonzero(~valid))
            if n_invalid:
                n_skipped += n_invalid
                sel = np.flatnonzero(valid)
                rows_a, rows_c, count = rows_a[sel], rows_c[sel], cnt[sel]
            else:
                count = cnt
            cxy_parts.append(count)
            ant_parts.append(rows_a)
            cons_parts.append(rows_c)
    return (
        np.concatenate(cxy_parts),
        np.concatenate(ant_parts),
        np.concatenate(cons_parts),
        n_skipped,
    )


def generate_rules_legacy(
    itemsets: FrequentItemsets,
    min_lift: float = 1.5,
    min_confidence: float = 0.0,
    keyword_ids: Iterable[int] | None = None,
    expand_only: Iterable[frozenset[int]] | None = None,
) -> list[AssociationRule]:
    """The original per-split object path, kept as the correctness oracle.

    The CI equality sweep asserts :func:`generate_rule_table` reproduces
    this output bit-for-bit (same rules, same metric doubles, same order)
    on all three traces.  Do not "optimise" this function — its value is
    being the unchanged reference.
    """
    _validate_params(min_lift, min_confidence)
    keywords = frozenset(keyword_ids) if keyword_ids is not None else None

    n = itemsets.n_transactions
    if n == 0:
        return []
    counts = itemsets.counts
    vocabulary = itemsets.vocabulary
    rules: list[AssociationRule] = []

    if expand_only is not None:
        surface: Iterable[tuple[frozenset[int], int]] = (
            (itemset, counts[itemset]) for itemset in expand_only
        )
    else:
        surface = counts.items()

    # enumerate every split first, then score the whole batch with numpy:
    # the metric arithmetic is identical IEEE-double arithmetic to
    # compute_metrics, but runs once over arrays instead of per split, and
    # AssociationRule objects are materialised only for survivors
    antecedents: list[frozenset[int]] = []
    consequents: list[frozenset[int]] = []
    count_xy_l: list[int] = []
    count_x_l: list[int] = []
    count_y_l: list[int] = []
    n_skipped = 0

    for itemset, count_xy in surface:
        if len(itemset) < 2:
            continue
        if keywords is not None and not (itemset & keywords):
            continue
        members = sorted(itemset)
        # every split of the itemset into non-empty (antecedent, consequent)
        for size in range(1, len(members)):
            for antecedent in combinations(members, size):
                antecedent_ids = frozenset(antecedent)
                consequent_ids = itemset - antecedent_ids
                count_x = counts.get(antecedent_ids)
                count_y = counts.get(consequent_ids)
                if count_x is None or count_y is None:
                    # cannot happen for a downward-closed itemset table, but
                    # partitioned (SON) candidate sets may be incomplete
                    n_skipped += 1
                    continue
                antecedents.append(antecedent_ids)
                consequents.append(consequent_ids)
                count_xy_l.append(count_xy)
                count_x_l.append(count_x)
                count_y_l.append(count_y)

    if n_skipped:
        record_kernel(SKIPPED_KERNEL, 0.0, n_skipped)
    if not count_xy_l:
        return []

    with kernel_timer("rules-batch"):
        supp_xy = np.asarray(count_xy_l, dtype=np.float64) / n
        supp_x = np.asarray(count_x_l, dtype=np.float64) / n
        supp_y = np.asarray(count_y_l, dtype=np.float64) / n
        denom = supp_x * supp_y
        with np.errstate(divide="ignore", invalid="ignore"):
            conf = np.where(supp_x > 0.0, supp_xy / supp_x, 0.0)
            lift_arr = np.where(denom > 0.0, supp_xy / denom, 0.0)
            conviction_arr = np.where(
                conf >= 1.0, np.inf, (1.0 - supp_y) / (1.0 - conf)
            )
        leverage_arr = supp_xy - denom
        keep = np.flatnonzero((lift_arr >= min_lift) & (conf >= min_confidence))

        for i in keep:
            metrics = RuleMetrics(
                support=float(supp_xy[i]),
                confidence=float(conf[i]),
                lift=float(lift_arr[i]),
                leverage=float(leverage_arr[i]),
                conviction=float(conviction_arr[i]),
            )
            rules.append(
                _make_rule(antecedents[i], consequents[i], metrics, vocabulary)
            )

    rules.sort(
        key=lambda r: (
            -r.lift,
            -r.confidence,
            -r.support,
            str(sorted(r.antecedent)),
            str(sorted(r.consequent)),
        )
    )
    return rules
