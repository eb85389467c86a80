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

The production path (:func:`prune_rule_table` and the array core behind
:func:`prune_rules`) finds the nested pairs by a join instead of testing
every pair of a group: each rule's side is packed into uint64 id-masks
(the packing ``core/bitmap.py`` uses for transactions), its proper
subsets are enumerated (at most 14 at the paper's ``max_len`` 5), and
each ``(subset, other side)`` key is matched against the keys of the
rules whose side has that many items, one sort per size.  The pairwise
statement of Sec. III-D it is tested against rule by rule lives in
``tests/oracles.py``.

An optional *condensation* pass (``condense=True``) further shrinks the
survivor set per Kannan & Bhaskaran: rules whose null-invariant
interestingness is weak (low Kulczynski or extreme imbalance ratio) are
dropped first, then near-duplicate rules — same consequent, antecedent
Jaccard similarity above a threshold — collapse onto their strongest
representative.  Condensation is off by default and reported as pseudo
conditions 5 (low interest) and 6 (clustered).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import combinations
from dataclasses import dataclass, field as dataclass_field
from typing import Iterable, Sequence

import numpy as np

from .bitmap import kernel_timer
from .interest import extended_metrics_columns
from .items import Item, as_item
from .rules import AssociationRule
from .ruletable import RuleTable, pack_side_masks, row_ids

__all__ = [
    "PruningConfig",
    "CondenseConfig",
    "PruningReport",
    "prune_rules",
    "prune_rule_table",
    "keyword_rules",
]

#: pseudo condition codes used by the condensation pass in reports
CONDITION_LOW_INTEREST = 5
CONDITION_CLUSTERED = 6


@dataclass(frozen=True, slots=True)
class PruningConfig:
    """Tunables of the pruning pass (paper defaults)."""

    c_lift: float = 1.5
    c_supp: float = 1.5

    def __post_init__(self) -> None:
        if self.c_lift < 1.0:
            raise ValueError("C_lift must be >= 1")
        if self.c_supp < 1.0:
            raise ValueError("C_supp must be >= 1")


@dataclass(frozen=True, slots=True)
class CondenseConfig:
    """Tunables of the optional condensation pass.

    Rules with ``kulczynski < min_kulczynski`` or ``imbalance_ratio >
    max_imbalance`` are dropped as uninteresting; among the remainder,
    rules whose antecedent Jaccard similarity to an already-kept rule
    with the same consequent reaches ``min_jaccard`` are clustered away
    (first kept rule in input order is the representative — highest
    ranked, since rule tables arrive in lift-descending order).
    """

    min_kulczynski: float = 0.3
    max_imbalance: float = 0.95
    min_jaccard: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_kulczynski <= 1.0:
            raise ValueError("min_kulczynski must be in [0, 1]")
        if not 0.0 <= self.max_imbalance <= 1.0:
            raise ValueError("max_imbalance must be in [0, 1]")
        if not 0.0 < self.min_jaccard <= 1.0:
            raise ValueError("min_jaccard must be in (0, 1]")


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


def _equal_key_pairs(
    keys: np.ndarray, wanted: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every ``(i, j)`` with ``keys[i] == wanted[j]``, by one sort.

    Keys repeat when rules do, and every copy pairs.
    """
    n = len(keys)
    # doubled, so each query sorts after the rules sharing its key
    tagged = np.concatenate([keys, wanted])
    tagged <<= 1
    tagged[n:] += 1
    order = np.argsort(tagged)
    run_keys = tagged[order]
    del tagged
    run_keys >>= 1
    new_run = np.empty(run_keys.size, dtype=bool)
    new_run[0] = True
    np.not_equal(run_keys[1:], run_keys[:-1], out=new_run[1:])
    del run_keys
    run_start = np.flatnonzero(new_run)
    run = np.cumsum(new_run)
    run -= 1
    is_key = order < n
    n_keys = np.add.reduceat(is_key.astype(np.int64), run_start)
    queries = np.flatnonzero(~is_key)
    query_run = run[queries]
    del run, is_key
    hits = n_keys[query_run]
    offsets = np.arange(int(hits.sum())) - np.repeat(np.cumsum(hits) - hits, hits)
    matched = order[np.repeat(run_start[query_run], hits) + offsets]
    return matched, np.repeat(order[queries] - n, hits)


def _nested_pairs(
    side_indptr: np.ndarray,
    side_ids: np.ndarray,
    side_masks: np.ndarray,
    other_id: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``(short, long)`` index arrays of every pair of rules with the same
    other side (dense ids *other_id*) whose *side* sets nest strictly.

    A side of *k* items has ``2**k - 2`` proper nonempty subsets — 14 at
    the paper's ``max_len`` 5, whose sides hold at most 4 items.  The
    subsets of each size *j*, paired with their rule's other side, are
    joined against the keys of the rules whose side has *j* items.  The
    cost is linear in the rules times their subsets, not quadratic in
    the size of a group.
    """
    sizes = np.diff(side_indptr)
    n_other = int(other_id.max()) + 1
    # one single-item mask per position of every side of k >= 2 items
    singles: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for k in np.unique(sizes[sizes >= 2]).tolist():
        rows = np.flatnonzero(sizes == k)
        members = side_ids[side_indptr[rows][:, None] + np.arange(k)].T
        members = members.astype(np.uint64)
        bits = np.zeros((k, rows.size, side_masks.shape[1]), dtype=np.uint64)
        for j in range(k):
            bits[j, np.arange(rows.size), members[j] >> np.uint64(6)] = (
                np.uint64(1) << (members[j] & np.uint64(63))
            )
        singles[k] = rows, bits

    shorts: list[np.ndarray] = [np.zeros(0, dtype=np.int64)]
    longs: list[np.ndarray] = [np.zeros(0, dtype=np.int64)]
    for size in range(1, int(sizes.max())):
        short_rows = np.flatnonzero(sizes == size)
        if short_rows.size == 0:
            continue
        subsets = [side_masks[short_rows]]
        long_rows = []
        for k, (rows, bits) in singles.items():
            if k <= size:
                continue
            for positions in combinations(range(k), size):
                subsets.append(np.bitwise_or.reduce(bits[list(positions)], axis=0))
                long_rows.append(rows)
        long_of = np.concatenate(long_rows)
        ids = row_ids(np.concatenate(subsets))
        del subsets
        m = short_rows.size
        short, query = _equal_key_pairs(
            ids[:m] * n_other + other_id[short_rows],
            ids[m:] * n_other + other_id[long_of],
        )
        shorts.append(short_rows[short])
        longs.append(long_of[query])
    return np.concatenate(shorts), np.concatenate(longs)


def _mark_conditions(
    ant_indptr: np.ndarray,
    ant_ids: np.ndarray,
    cons_indptr: np.ndarray,
    cons_ids: np.ndarray,
    lift: np.ndarray,
    support: np.ndarray,
    in_ant: np.ndarray,
    in_cons: np.ndarray,
    c_lift: float,
    c_supp: float,
    n_items: int,
) -> np.ndarray:
    """Condition codes 1–4 of every rule (0 = kept), by subset join.

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
    ant_masks = pack_side_masks(ant_indptr, ant_ids, n_items)
    cons_masks = pack_side_masks(cons_indptr, cons_ids, n_items)

    short, long_ = _nested_pairs(
        ant_indptr, ant_ids, ant_masks, row_ids(cons_masks)
    )
    lift_short_ok = c_lift * lift[short] >= lift[long_]
    pair1 = in_cons[short]
    mark1 = np.zeros(n, dtype=bool)
    mark1[long_[pair1 & lift_short_ok]] = True
    supp_long_ok = c_supp * support[long_] >= support[short]
    mark1[short[pair1 & ~lift_short_ok & supp_long_ok]] = True
    pair4 = ~in_cons[short] & in_ant[short] & in_ant[long_]
    mark4 = np.zeros(n, dtype=bool)
    mark4[long_[pair4 & lift_short_ok]] = True

    del short, long_
    short, long_ = _nested_pairs(
        cons_indptr, cons_ids, cons_masks, row_ids(ant_masks)
    )
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


def _prune_arrays(
    ant_indptr: np.ndarray,
    ant_ids: np.ndarray,
    cons_indptr: np.ndarray,
    cons_ids: np.ndarray,
    lift: np.ndarray,
    support: np.ndarray,
    confidence: np.ndarray,
    in_ant: np.ndarray,
    in_cons: np.ndarray,
    config: PruningConfig,
    condense_config: CondenseConfig | None,
) -> np.ndarray:
    """Array core shared by both public paths.

    Returns the per-rule condition code (0 = kept; 1–4 = Sec. III-D;
    5/6 = condensation).  All inputs are keyword-relevant rules only.
    A rule marked by several phases records the first: the
    consequent-grouped phase (C1/C4) wins over the antecedent-grouped
    phase (C2/C3), which wins over condensation.
    """
    if len(lift) == 0:
        return np.zeros(0, dtype=np.int8)

    n_items = 1
    if ant_ids.size:
        n_items = max(n_items, int(ant_ids.max()) + 1)
    if cons_ids.size:
        n_items = max(n_items, int(cons_ids.max()) + 1)

    with kernel_timer("prune-join"):
        cond = _mark_conditions(
            ant_indptr, ant_ids, cons_indptr, cons_ids, lift, support,
            in_ant, in_cons, config.c_lift, config.c_supp, n_items,
        )

    if condense_config is not None:
        with kernel_timer("prune-condense"):
            survivors = np.flatnonzero(cond == 0)
            cond[survivors] = _condense_codes(
                [frozenset(int(x) for x in ant_ids[ant_indptr[i]:ant_indptr[i + 1]])
                 for i in survivors],
                [tuple(int(x) for x in cons_ids[cons_indptr[i]:cons_indptr[i + 1]])
                 for i in survivors],
                support[survivors], confidence[survivors], lift[survivors],
                condense_config,
            )
    return cond


def _condense_codes(
    ant_sets: Sequence[frozenset[int]],
    cons_keys: Sequence[tuple[int, ...]],
    support: np.ndarray,
    confidence: np.ndarray,
    lift: np.ndarray,
    config: CondenseConfig,
) -> np.ndarray:
    """Condensation codes (0 kept, 5 low interest, 6 clustered)."""
    ext = extended_metrics_columns(support, confidence, lift)
    interesting = (ext.kulczynski >= config.min_kulczynski) & (
        ext.imbalance_ratio <= config.max_imbalance
    )
    codes = np.where(interesting, 0, CONDITION_LOW_INTEREST).astype(np.int8)
    representatives: dict[tuple[int, ...], list[frozenset[int]]] = defaultdict(list)
    for i in np.flatnonzero(interesting):
        antecedent = ant_sets[i]
        reps = representatives[cons_keys[i]]
        for rep in reps:
            shared = len(antecedent & rep)
            if shared and shared / len(antecedent | rep) >= config.min_jaccard:
                codes[i] = CONDITION_CLUSTERED
                break
        else:
            reps.append(antecedent)
    return codes


# ---------------------------------------------------------------------------
# public paths
# ---------------------------------------------------------------------------


def _count_codes(report: PruningReport, cond: np.ndarray) -> None:
    codes, counts = np.unique(cond[cond != 0], return_counts=True)
    report.pruned_by_condition.update(dict(zip(codes.tolist(), counts.tolist())))


def prune_rule_table(
    table: RuleTable,
    keyword: Item | str,
    config: PruningConfig = PruningConfig(),
    *,
    condense: bool = False,
    condense_config: CondenseConfig | None = None,
) -> tuple[RuleTable, PruningReport]:
    """Apply Conditions 1–4 (and optional condensation) to a RuleTable.

    Rows not containing the keyword are removed up front, matching
    :func:`prune_rules`.  Returns the surviving rows — input order
    preserved — and a :class:`PruningReport`.
    """
    kw = as_item(keyword)
    report = PruningReport()
    keyword_id = table.vocabulary.get_id(kw)
    if keyword_id is None or len(table) == 0:
        return table.select(np.empty(0, dtype=np.int64)), report

    in_ant_all, in_cons_all = table.contains_id(keyword_id)
    relevant_rows = np.flatnonzero(in_ant_all | in_cons_all)
    sub = table.select(relevant_rows)
    report.n_input = len(sub)

    cond = _prune_arrays(
        sub.ant_indptr, sub.ant_ids, sub.cons_indptr, sub.cons_ids,
        sub.lift, sub.support, sub.confidence,
        in_ant_all[relevant_rows], in_cons_all[relevant_rows],
        config,
        (condense_config or CondenseConfig()) if condense else None,
    )
    kept = sub.select(np.flatnonzero(cond == 0))
    report.n_kept = len(kept)
    _count_codes(report, cond)
    return kept, report


def prune_rules(
    rules: Sequence[AssociationRule],
    keyword: Item | str,
    config: PruningConfig = PruningConfig(),
    *,
    condense: bool = False,
    condense_config: CondenseConfig | None = None,
) -> tuple[list[AssociationRule], PruningReport]:
    """Apply Conditions 1–4 to *rules* for the given *keyword*.

    Input rules not containing the keyword are removed up front (they are
    irrelevant to the analysis objective).  Returns the surviving rules in
    their input order plus a :class:`PruningReport`.  Runs the same array
    kernel as :func:`prune_rule_table`.

    With ``condense=True`` an additional interestingness + clustering
    pass (see :class:`CondenseConfig`) shrinks the survivor set; dropped
    rules are reported under pseudo conditions 5 and 6.
    """
    kw = as_item(keyword)
    relevant = keyword_rules(rules, kw)
    report = PruningReport(n_input=len(relevant))
    if not relevant:
        report.n_kept = 0
        return [], report

    cond = _rule_codes(
        relevant, kw, config,
        (condense_config or CondenseConfig()) if condense else None,
    )
    kept = [rule for i, rule in enumerate(relevant) if not cond[i]]
    report.n_kept = len(kept)
    _count_codes(report, cond)
    return kept, report


def _rule_codes(
    relevant: Sequence[AssociationRule],
    kw: Item,
    config: PruningConfig,
    condense_config: CondenseConfig | None = None,
) -> np.ndarray:
    """The array kernel's condition code of each keyword-relevant rule."""
    ant_indptr = [0]
    cons_indptr = [0]
    ant_ids: list[int] = []
    cons_ids: list[int] = []
    for rule in relevant:
        ant_ids.extend(sorted(rule.antecedent_ids))
        cons_ids.extend(sorted(rule.consequent_ids))
        ant_indptr.append(len(ant_ids))
        cons_indptr.append(len(cons_ids))
    n = len(relevant)
    return _prune_arrays(
        np.asarray(ant_indptr, dtype=np.int64),
        np.asarray(ant_ids, dtype=np.int64),
        np.asarray(cons_indptr, dtype=np.int64),
        np.asarray(cons_ids, dtype=np.int64),
        np.fromiter((r.lift for r in relevant), np.float64, count=n),
        np.fromiter((r.support for r in relevant), np.float64, count=n),
        np.fromiter((r.confidence for r in relevant), np.float64, count=n),
        np.fromiter((kw in r.antecedent for r in relevant), bool, count=n),
        np.fromiter((kw in r.consequent for r in relevant), bool, count=n),
        config,
        condense_config,
    )
