"""Keyword-centric rule pruning — Conditions 1–4 of Sec. III-D.

A *keyword* is the item under investigation (e.g. ``Failed`` or
``SM Util = 0%``).  Rules with the keyword in the **consequent** serve
*cause analysis*; rules with the keyword in the **antecedent** serve
*characteristic analysis*.  The four conditions discard rules that are
redundant relative to a shorter/longer sibling:

=========  ==================  ==========================  ===============================
Condition  keyword position    rules differ in             keeps
=========  ==================  ==========================  ===============================
1          consequent          antecedent (X_i ⊂ X_j)      shorter X unless longer has
                                                           clearly higher lift & similar supp
2          antecedent          consequent (Y_i ⊂ Y_j)      more specific Y unless lift drops
3          consequent (both)   consequent (Y_i ⊂ Y_j)      concise consequent
4          antecedent (both)   antecedent (X_i ⊂ X_j)      generalising antecedent
=========  ==================  ==========================  ===============================

``C_lift`` and ``C_supp`` (both ≥ 1; the paper uses 1.5 for every trace)
regulate how easily "similar lift" / "similar support" comparisons fire.

Decisions are evaluated against the *original* rule set (non-cascading):
every pairwise test sees all input rules, and a rule is dropped if any
test marks it.  This makes the result independent of rule enumeration
order, which the paper's description implicitly assumes.

The production path (:func:`prune_rule_table`, and :func:`prune_rules`
on a table of its rules) finds the nested pairs on the itemset lattice
instead of testing every pair of a group.  A rule ``A ⇒ C`` is one
entry of the :class:`~repro.core.itemsets.ItemsetView` split table:
itemset ``Z = A ∪ C`` and the pattern ``P`` that selects ``A``.  Its
partners with a shorter antecedent (same consequent) or a shorter
consequent (same antecedent) are entries of sub-itemsets of ``Z``, and
a static per-length table of pattern arithmetic names them, so each
pair costs three integer gathers.  Generation's candidates are entries
already (:func:`prune_candidates`); a generated table carries its
entries (its split provenance); any other table first maps its rules
onto a rows-only view of their itemsets (the ``prune-entries`` kernel).
The pairwise statement of Sec. III-D it is tested against rule by rule
lives in ``tests/oracles.py``.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field as dataclass_field
from typing import Iterable, Sequence

import numpy as np

from ..obs import kernel_timer
from .config import PruningConfig
from .items import Item, ItemVocabulary, as_item
from .itemsets import ItemsetView
from .rules import AssociationRule, RuleCandidates
from .ruletable import RuleTable

__all__ = [
    "PruningConfig",
    "PruningReport",
    "prune_candidates",
    "prune_rules",
    "prune_rule_table",
    "keyword_condition_codes",
    "keyword_rules",
]


@dataclass(slots=True)
class PruningReport:
    """Bookkeeping of which condition removed how many rules."""

    n_input: int = 0
    n_kept: int = 0
    pruned_by_condition: Counter = dataclass_field(default_factory=Counter)

    @property
    def n_pruned(self) -> int:
        return self.n_input - self.n_kept

    def __str__(self) -> str:
        parts = ", ".join(
            f"C{cond}: {count}" for cond, count in sorted(self.pruned_by_condition.items())
        )
        return (
            f"PruningReport(input={self.n_input}, kept={self.n_kept}, "
            f"pruned={self.n_pruned} [{parts or 'none'}])"
        )


def keyword_rules(
    rules: Iterable[AssociationRule], keyword: Item | str
) -> list[AssociationRule]:
    """Restrict to rules mentioning *keyword* on either side."""
    kw = as_item(keyword)
    return [r for r in rules if r.contains(kw)]


# ---------------------------------------------------------------------------
# columnar condition kernel
# ---------------------------------------------------------------------------


def _pext(value: int, mask: int) -> int:
    """The bits of *value* at the set positions of *mask*, packed low."""
    out = k = 0
    while mask:
        low = mask & -mask
        if value & low:
            out |= 1 << k
        k += 1
        mask ^= low
    return out


@functools.cache
def _nested_patterns(length: int) -> list[np.ndarray]:
    """The static partner table of a length-``L`` itemset's splits.

    Item ``X`` (``1 … 2**L - 2``) is for the split side of pattern ``X``
    that shrinks while the other side ``Y = full ^ X`` stays: a
    ``(3, k)`` array with one column per proper nonempty ``s ⊂ X`` and
    three rows, each minus one (the entry offset): ``m = s | Y``, the
    pattern of the sub-itemset ``s ∪ Y`` within the itemset; ``pext(s, m)``, the pattern within
    that sub-itemset of the side cut to ``s``; and ``pext(Y, m)``, that
    of the kept side.
    """
    full = (1 << length) - 1
    table = [np.zeros((3, 0), dtype=np.int64)]
    for x in range(1, full):
        y = full ^ x
        rows = []
        s = (x - 1) & x
        while s:
            m = s | y
            rows.append((m - 1, _pext(s, m) - 1, _pext(y, m) - 1))
            s = (s - 1) & x
        table.append(np.array(rows, dtype=np.int64).reshape(-1, 3).T.copy())
    return table


def _split_entries(table: RuleTable) -> tuple[ItemsetView, np.ndarray]:
    """Each rule's entry ``(Z, P)`` in a split table: ``Z = A ∪ C`` and
    ``P`` selects ``A``.

    A generated table carries them; any other table gets a rows-only
    :class:`ItemsetView` over its distinct rule itemsets.  Raises
    ``ValueError`` for a rule with an empty or overlapping side.
    """
    if table._splits is not None:
        return table._splits
    with kernel_timer("prune-entries"):
        ant_sizes, cons_sizes = table.ant_sizes(), table.cons_sizes()
        if not (ant_sizes.all() and cons_sizes.all()):
            raise ValueError("rule sides must be non-empty")
        n = len(table)
        lengths = ant_sizes + cons_sizes
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        rules = np.arange(n, dtype=np.int64)
        ids = np.concatenate([table.ant_ids, table.cons_ids]).astype(np.int64)
        from_ant = np.arange(ids.size) < table.ant_ids.size
        order = np.lexsort((ids, np.concatenate([
            np.repeat(rules, ant_sizes), np.repeat(rules, cons_sizes),
        ])))
        ids, from_ant = ids[order], from_ant[order]
        rows = np.repeat(rules, lengths)
        if ((ids[1:] == ids[:-1]) & (rows[1:] == rows[:-1])).any():
            raise ValueError("antecedent and consequent must be disjoint")
        position = np.arange(ids.size, dtype=np.int64) - indptr[rows]
        pattern = np.add.reduceat(from_ant.astype(np.int64) << position, indptr[:-1])
        view, row = ItemsetView.of_rows(indptr, ids)
        return view, view.split_indptr[row] + pattern - 1


def _partner_pairs(
    view: ItemsetView, entry: np.ndarray
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """``(short, long)`` index arrays of every pair of rules whose
    antecedents nest strictly under an equal consequent, then of those
    whose consequents nest strictly under an equal antecedent.

    Rule ``i`` is the split-table entry ``entry[i] = (Z, P)``.  Each
    proper nonempty ``s`` of its shrinking side names its shorter
    partner: itemset row ``Z' = sub[Z, s | Y]`` and, within ``Z'``, the
    pattern the static table gives — three integer gathers per pair, no
    sort or search.  Rules are taken one ``(L, P)`` class at a time, so a
    class's pairs are one broadcast over its rules.  When rules repeat an
    entry, every copy pairs with every copy of its partners.
    """
    # an absent sub-itemset (row -1) reads split_indptr[-1], the end of
    # the table; rule_at is -1 there and for every offset after it
    rule_at = np.full(len(view.sub) + (1 << int(view.lengths.max())), -1, dtype=np.int64)
    rule_at[entry] = np.arange(len(entry))
    unique, copies = entry, None
    if not np.array_equal(rule_at[entry], np.arange(len(entry))):
        unique, inverse, copies = np.unique(entry, return_inverse=True, return_counts=True)
        rule_at[unique] = np.arange(len(unique))
    row = view.owner[unique]
    start = view.split_indptr[row]
    klass = (1 << view.lengths[row]) + (unique - start + 1)  # (L, P) as 2**L + P
    order = np.argsort(klass, kind="stable")
    bounds = np.flatnonzero(np.diff(klass[order])) + 1
    pairs: tuple[list[np.ndarray], ...] = ([], [], [], [])
    for rules in np.split(order, bounds):
        length = int(klass[rules[0]]).bit_length() - 1
        full = (1 << length) - 1
        pattern = int(klass[rules[0]]) - (1 << length)
        table = _nested_patterns(length)
        first = start[rules][:, None]
        for shrinking, side, (short_out, long_out) in (
            (pattern, 1, pairs[0:2]), (full ^ pattern, 2, pairs[2:4]),
        ):
            columns = table[shrinking]
            if not columns[0].size:
                continue
            partner = view.split_indptr[view.sub[first + columns[0]]] + columns[side]
            short = rule_at[partner]
            found = short >= 0
            short_out.append(short[found])
            long_out.append(np.broadcast_to(rules[:, None], short.shape)[found])
    empty = np.zeros(0, dtype=np.int64)
    short1, long1, short2, long2 = (np.concatenate([empty, *p]) for p in pairs)
    if copies is not None:
        short1, long1 = _copy_pairs(short1, long1, inverse, copies)
        short2, long2 = _copy_pairs(short2, long2, inverse, copies)
    return (short1, long1), (short2, long2)


def _copy_pairs(
    short: np.ndarray, long_: np.ndarray, inverse: np.ndarray, copies: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pairs of distinct entries → every pair of their rule copies."""
    members = np.argsort(inverse, kind="stable")
    first = np.cumsum(copies) - copies
    n_long = copies[long_]
    n_pairs = copies[short] * n_long
    pair = np.repeat(np.arange(len(short)), n_pairs)
    k = np.arange(int(n_pairs.sum())) - np.repeat(np.cumsum(n_pairs) - n_pairs, n_pairs)
    return (
        members[first[short[pair]] + k // n_long[pair]],
        members[first[long_[pair]] + k % n_long[pair]],
    )


def _mark_conditions(
    view: ItemsetView,
    entry: np.ndarray,
    lift: np.ndarray,
    support: np.ndarray,
    in_ant: np.ndarray,
    in_cons: np.ndarray,
    c_lift: float,
    c_supp: float,
) -> np.ndarray:
    """Condition codes 1–4 of every rule (0 = kept), by the lattice join.

    Antecedents nested under a shared consequent (short ⊂ long):

    * C1 (keyword in the shared consequent): ``c_lift·lift_s ≥ lift_l``
      marks the long rule, else ``c_supp·supp_l ≥ supp_s`` marks the
      short rule;
    * C4 (keyword in both antecedents): ``c_lift·lift_s ≥ lift_l`` marks
      the long rule.

    Consequents nested under a shared antecedent (short ⊂ long):

    * C2 (keyword in the shared antecedent): ``c_lift·lift_l ≥ lift_s``
      AND ``c_supp·supp_l ≥ supp_s`` marks the short rule, else
      ``c_lift·lift_l < lift_s`` marks the long rule;
    * C3 (keyword in both consequents): ``c_lift·lift_s ≥ lift_l`` marks
      the long rule.

    A rule marked under both groupings keeps its C1/C4 code.
    """
    n = len(lift)
    antecedent_pairs, consequent_pairs = _partner_pairs(view, entry)
    short, long_ = antecedent_pairs
    lift_short_ok = c_lift * lift[short] >= lift[long_]
    pair1 = in_cons[short]
    mark1 = np.zeros(n, dtype=bool)
    mark1[long_[pair1 & lift_short_ok]] = True
    supp_long_ok = c_supp * support[long_] >= support[short]
    mark1[short[pair1 & ~lift_short_ok & supp_long_ok]] = True
    pair4 = ~in_cons[short] & in_ant[short] & in_ant[long_]
    mark4 = np.zeros(n, dtype=bool)
    mark4[long_[pair4 & lift_short_ok]] = True

    short, long_ = consequent_pairs
    pair2 = in_ant[short]
    mark2 = np.zeros(n, dtype=bool)
    lift_long_ok = c_lift * lift[long_] >= lift[short]
    supp_long_ok = c_supp * support[long_] >= support[short]
    mark2[short[pair2 & lift_long_ok & supp_long_ok]] = True
    mark2[long_[pair2 & (c_lift * lift[long_] < lift[short])]] = True
    pair3 = ~in_ant[short] & in_cons[short] & in_cons[long_]
    mark3 = np.zeros(n, dtype=bool)
    mark3[long_[pair3 & (c_lift * lift[short] >= lift[long_])]] = True

    return np.select(
        [mark1, mark4, mark2, mark3], [1, 4, 2, 3], default=0
    ).astype(np.int8)


# ---------------------------------------------------------------------------
# public paths
# ---------------------------------------------------------------------------


def _report(cond: np.ndarray) -> PruningReport:
    codes, counts = np.unique(cond[cond != 0], return_counts=True)
    return PruningReport(
        n_input=len(cond),
        n_kept=len(cond) - int(counts.sum()),
        pruned_by_condition=Counter(dict(zip(codes.tolist(), counts.tolist()))),
    )


def prune_candidates(
    candidates: RuleCandidates,
    keyword_id: int,
    config: PruningConfig = PruningConfig(),
) -> tuple[np.ndarray, PruningReport]:
    """Conditions 1–4 on candidates that all hold *keyword_id*: the
    kept candidates (ascending) and the report.  A candidate is an entry
    ``(Z, P)``; the keyword, the ``k``-th id of ``Z``, is in the
    antecedent iff bit ``k`` of ``P`` is set."""
    entry = candidates.entry
    if not len(entry):
        return np.zeros(0, dtype=np.int64), PruningReport()
    view = candidates.view
    with kernel_timer("prune-join"):
        row = view.owner[entry]
        k = np.argmax(view.padded[row] == np.uint64(keyword_id + 1), axis=1)
        in_ant = ((entry - view.split_indptr[row] + 1) >> k) & 1 == 1
        cond = _mark_conditions(
            view, entry, candidates.lift, candidates.support, in_ant, ~in_ant,
            config.c_lift, config.c_supp,
        )
    return np.flatnonzero(cond == 0), _report(cond)


def keyword_condition_codes(
    table: RuleTable,
    keyword: Item | str,
    config: PruningConfig = PruningConfig(),
) -> tuple[np.ndarray, np.ndarray]:
    """``(relevant rows, condition code of each)`` of a table for *keyword*.

    The relevant rows are those holding the keyword on either side, in
    table order.  Codes: 0 kept, 1–4 Sec. III-D.  A rule marked by both
    phases records the consequent-grouped one (C1/C4) over the
    antecedent-grouped one (C2/C3).
    """
    keyword_id = table.vocabulary.get_id(as_item(keyword))
    if keyword_id is None or len(table) == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int8)
    in_ant, in_cons = table.contains_id(keyword_id)
    relevant = in_ant | in_cons
    rows = np.flatnonzero(relevant)
    if not relevant.all():
        table = table.select(rows)
        in_ant, in_cons = in_ant[rows], in_cons[rows]
    return rows, _codes(table, in_ant, in_cons, config)


def _codes(
    table: RuleTable,
    in_ant: np.ndarray,
    in_cons: np.ndarray,
    config: PruningConfig,
) -> np.ndarray:
    """Condition code of every rule of a table of keyword-relevant rules."""
    if len(table) == 0:
        return np.zeros(0, dtype=np.int8)
    view, entry = _split_entries(table)
    with kernel_timer("prune-join"):
        return _mark_conditions(
            view, entry, table.lift, table.support, in_ant, in_cons,
            config.c_lift, config.c_supp,
        )


def prune_rule_table(
    table: RuleTable,
    keyword: Item | str,
    config: PruningConfig = PruningConfig(),
) -> tuple[RuleTable, PruningReport]:
    """Apply Conditions 1–4 to a RuleTable.

    Rows not containing the keyword are removed up front, matching
    :func:`prune_rules`.  Returns the surviving rows — input order
    preserved — and a :class:`PruningReport`.
    """
    rows, cond = keyword_condition_codes(table, keyword, config)
    return table.select(rows[cond == 0]), _report(cond)


def prune_rules(
    rules: Sequence[AssociationRule],
    keyword: Item | str,
    config: PruningConfig = PruningConfig(),
) -> tuple[list[AssociationRule], PruningReport]:
    """Apply Conditions 1–4 to *rules* for the given *keyword*.

    Input rules not containing the keyword are removed up front (they are
    irrelevant to the analysis objective).  Returns the surviving rules in
    their input order plus a :class:`PruningReport`.  Runs the same
    kernel as :func:`prune_rule_table`, on a table of the relevant rules.
    """
    kw = as_item(keyword)
    relevant = keyword_rules(rules, kw)
    if not relevant:
        return [], PruningReport()

    n = len(relevant)
    cond = _codes(
        # the join reads ids only, so no vocabulary is rebuilt from items
        RuleTable.from_rules(relevant, ItemVocabulary()),
        np.fromiter((kw in r.antecedent for r in relevant), bool, count=n),
        np.fromiter((kw in r.consequent for r in relevant), bool, count=n),
        config,
    )
    return [rule for i, rule in enumerate(relevant) if not cond[i]], _report(cond)
