"""Paper conformance: each Sec. III rule on a small hand-built input.

Every case states the answer computed by hand and requires it from both
the production path and the oracle in :mod:`tests.oracles`, at the
paper's settings (5 % support, ``max_len`` 5, lift ≥ 1.5, the 80 % skew
filter, ``C_lift = C_supp = 1.5``).  Boundaries are hit exactly: counts
are chosen so the floats involved are exact.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

import pytest

from repro.core import ALGORITHMS, FrequentItemsets, MiningConfig, TransactionDatabase
from repro.core.items import Item, ItemVocabulary
from repro.core.pruning import prune_rule_table
from repro.core.rules import AssociationRule, generate_rule_table
from repro.dataframe import BooleanColumn, ColumnTable
from repro.engine import MiningEngine
from repro.preprocess import FeatureSpec, TracePreprocessor

from .oracles import (
    check_itemset_table,
    condition_codes,
    preprocess_rows,
    rows_of,
    rules_by_split,
    support_counts,
    table_of,
)

PAPER = MiningConfig()


def mine(raw: list[list[str]]) -> tuple[TransactionDatabase, dict]:
    db = TransactionDatabase.from_itemsets(raw)
    return db, MiningEngine().mine(db, PAPER).counts


def named(db: TransactionDatabase, counts: dict) -> dict:
    return {
        frozenset(str(i) for i in db.vocabulary.items_of(s)): c for s, c in counts.items()
    }


def raw_ids(db: TransactionDatabase) -> list[list[int]]:
    return [t.tolist() for t in db.iter_id_transactions()]


# -- Sec. III-C: the 5 % support floor and max_len 5 ----------------------------------


@pytest.mark.parametrize("n", [50, 60])
def test_support_floor_at_ceil_of_five_percent(n):
    # ceil(0.05 n) rows is frequent, one row fewer is not: 3 of 50 and
    # 3 of 60 (exactly 5 %) are kept, 2 of either is dropped
    floor = -(-5 * n // 100)
    raw = [["a"]] * floor + [["b"]] * (floor - 1) + [[]] * (n - 2 * floor + 1)
    db, counts = mine(raw)
    assert named(db, counts) == {frozenset({"a = a"}): floor}
    assert support_counts(raw_ids(db), PAPER.min_support, PAPER.max_len) == counts
    check_itemset_table(db, counts, PAPER.min_support, PAPER.max_len)


#: floors on a float boundary: a threshold just above 1/20 must drop a
#: count of 1 in 20, and 0.07 * 100 (which rounds to 7.000000000000001)
#: must keep a count of 7
FLOOR_CASES = [
    (0.05 + 1e-12, [["a", "b"]] + [["c"]] * 19, {("c",): 19}),
    (
        0.07,
        [["a", "b"]] * 7 + [["c"]] * 6 + [[]] * 87,
        {("a",): 7, ("b",): 7, ("a", "b"): 7},
    ),
]


def by_name(expected: dict) -> dict:
    return {frozenset(f"{i} = {i}" for i in s): c for s, c in expected.items()}


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@pytest.mark.parametrize("min_support, raw, expected", FLOOR_CASES)
def test_support_floor_is_count_over_n(algorithm, min_support, raw, expected):
    db = TransactionDatabase.from_itemsets(raw)
    counts = ALGORITHMS[algorithm](db, min_support, PAPER.max_len)
    assert named(db, counts) == by_name(expected)
    assert support_counts(raw_ids(db), min_support, PAPER.max_len) == counts


def test_max_len_five_stops_at_five_items():
    # every subset of a six-item row is frequent, the 6-itemset included,
    # yet no itemset of six items is reported
    six = [f"i{k}" for k in range(6)]
    db, counts = mine([six] * 10 + [[]] * 10)
    assert len(counts) == sum(len(list(combinations(six, k))) for k in range(1, 6))
    assert max(len(s) for s in counts) == 5
    assert set(counts.values()) == {10}
    assert support_counts(raw_ids(db), PAPER.min_support, PAPER.max_len) == counts
    assert frozenset(range(6)) in support_counts(raw_ids(db), PAPER.min_support, 6)


# -- Sec. III-B: lift >= 1.5 --------------------------------------------------------


@pytest.mark.parametrize("n_both, kept", [(192, True), (191, False)])
def test_lift_floor_is_inclusive(n_both, kept):
    # 1,024 rows, a in 512, b in 256: lift(a => b) = n_both / 128, which
    # is exactly 1.5 at 192 rows and 1.4921875 at 191
    raw = (
        [["a", "b"]] * n_both
        + [["a"]] * (512 - n_both)
        + [["b"]] * (256 - n_both)
        + [["c"]] * (1024 - 768 + n_both)
    )
    db, counts = mine(raw)
    itemsets = FrequentItemsets(counts, db.vocabulary, len(db), 0.05, 5)
    table = generate_rule_table(itemsets, min_lift=PAPER.min_lift)
    oracle = rules_by_split(counts, len(db), db.vocabulary, min_lift=PAPER.min_lift)
    assert rows_of(table) == oracle
    pair = {(tuple(r[0]), tuple(r[1])): r[4] for r in oracle}
    a, b = db.vocabulary.id_of("a"), db.vocabulary.id_of("b")
    if kept:
        assert pair == {((a,), (b,)): 1.5, ((b,), (a,)): 1.5}
    else:
        assert pair == {}


# -- Sec. III-E: the 80 % skew filter -----------------------------------------------


def test_skew_filter_drops_only_above_eighty_percent():
    # x in exactly 80 of 100 rows stays; y in 81 is dropped
    table = ColumnTable({
        "x": BooleanColumn([k < 80 for k in range(100)]),
        "y": BooleanColumn([k < 81 for k in range(100)]),
    })
    pre = TracePreprocessor(features=[FeatureSpec("x", kind="flag"),
                                      FeatureSpec("y", kind="flag")])
    result = pre.run(table, use_cache=False)
    database, dropped, _tiers = preprocess_rows(pre, table)
    assert result.dropped_items == dropped == [Item.flag("y")]
    for db in (result.database, database):
        x = db.vocabulary.id_of(Item.flag("x"))
        assert db.item_support_counts().tolist() == [80, 0]
        assert [t.tolist() for t in db.iter_id_transactions()] == [[x]] * 80 + [[]] * 20


# -- Sec. III-D: Conditions 1-4 at C_lift = C_supp = 1.5 ------------------------------

K, A, B, C, D = range(5)  # K is the keyword

#: (rules as (antecedent, consequent, support, lift), hand-computed codes);
#: 1.5 * 2.0 == 3.0 and 1.5 * 0.25 == 0.375 are the exact boundaries
CONDITION_CASES = {
    # Condition 1: keyword in the shared consequent, antecedents nested
    "c1-lift-boundary-prunes-long": (
        [((A,), (K,), 0.25, 2.0), ((A, B), (K,), 0.25, 3.0)], [0, 1]),
    "c1-support-boundary-prunes-short": (
        [((A,), (K,), 0.375, 2.0), ((A, B), (K,), 0.25, 3.5)], [1, 0]),
    "c1-keeps-both": (
        [((A,), (K,), 0.375, 2.0), ((A, B), (K,), 0.125, 3.5)], [0, 0]),
    # Condition 4: keyword in both antecedents, antecedents nested
    "c4-lift-boundary-prunes-long": (
        [((K,), (C,), 0.25, 2.0), ((K, B), (C,), 0.25, 3.0)], [0, 4]),
    "c4-keeps-both": (
        [((K,), (C,), 0.25, 2.0), ((K, B), (C,), 0.25, 3.5)], [0, 0]),
    # Condition 2: keyword in the shared antecedent, consequents nested
    "c2-lift-and-support-boundary-prune-short": (
        [((K,), (C,), 0.375, 3.0), ((K,), (C, D), 0.25, 2.0)], [2, 0]),
    "c2-lift-drop-prunes-long": (
        [((K,), (C,), 0.375, 3.5), ((K,), (C, D), 0.25, 2.0)], [0, 2]),
    "c2-keeps-both-when-support-drops": (
        [((K,), (C,), 0.375, 3.0), ((K,), (C, D), 0.125, 2.0)], [0, 0]),
    # Condition 3: keyword in both consequents, consequents nested
    "c3-lift-boundary-prunes-long": (
        [((A,), (K,), 0.25, 2.0), ((A,), (K, D), 0.25, 3.0)], [0, 3]),
    "c3-keeps-both": (
        [((A,), (K,), 0.25, 2.0), ((A,), (K, D), 0.25, 3.5)], [0, 0]),
    # marked by C1 (same consequent) and C3 (same antecedent): C1 wins
    "c1-wins-over-c3": (
        [((A,), (K, D), 0.25, 2.0), ((A, B), (K, D), 0.25, 3.0),
         ((A, B), (K,), 0.25, 2.0)], [0, 1, 0]),
}


@pytest.mark.parametrize("case", CONDITION_CASES)
def test_conditions(case):
    specs, expected = CONDITION_CASES[case]
    vocab = ItemVocabulary(Item.flag(name) for name in "KABCD")
    rules = [
        AssociationRule(
            antecedent=vocab.items_of(ant), consequent=vocab.items_of(cons),
            antecedent_ids=frozenset(ant), consequent_ids=frozenset(cons),
            support=supp, confidence=0.5, lift=lift, leverage=0.0, conviction=1.0,
        )
        for ant, cons, supp, lift in specs
    ]
    table = table_of(rules, vocab)
    assert condition_codes(rows_of(table), K, 1.5, 1.5) == expected
    kept, report = prune_rule_table(table, Item.flag("K"), PAPER.pruning)
    assert rows_of(kept) == [row for row, c in zip(rows_of(table), expected) if not c]
    assert report.pruned_by_condition == Counter(c for c in expected if c)


# -- the table check itself rejects wrong tables --------------------------------------


def test_table_check_rejects_wrong_tables():
    raw = [["a", "b"], ["a", "b"], ["a"], ["c"]]
    db, counts = mine(raw)
    check_itemset_table(db, counts, 0.05, 5)
    a, b = db.vocabulary.id_of("a"), db.vocabulary.id_of("b")
    missing = {s: c for s, c in counts.items() if s != frozenset({a, b})}
    miscounted = {**counts, frozenset({a}): 2}
    too_long = {**counts, frozenset({a, b}): 2}
    for wrong, max_len in ((missing, 5), (miscounted, 5), (too_long, 1)):
        with pytest.raises(AssertionError):
            check_itemset_table(db, wrong, 0.05, max_len)
