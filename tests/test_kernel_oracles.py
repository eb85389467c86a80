"""Property tests: the two mining-pass kernels against the Sec. III oracles.

* Mask-projected FP-Growth (:func:`repro.core.fpgrowth.fpgrowth`) against
  brute force — support counted by set inclusion over every subset of
  every transaction (:func:`tests.oracles.support_counts`).  The
  strategies reach more than 64 frequent items (masks of two or more
  words), ``max_len`` None/1/2/3/5, ``min_support`` 0 and 1, empty
  transactions and ``txn_range`` views.
* The Conditions 1–4 lattice join against the pairwise statement of
  Sec. III-D (:func:`tests.oracles.condition_codes`): identical
  condition code per rule, not just identical survivors, with sides of
  six or more items, vocabularies over 64 items, duplicate rules and
  ``C_lift``/``C_supp`` other than the paper's 1.5 — through the public
  :func:`repro.core.pruning.keyword_condition_codes`, on tables that
  carry their split provenance (generated) and on tables that do not.
  (Test names with ``object_tree`` or ``legacy`` date from the frozen
  twins these oracles replaced.)
* The serving batch encoder
  (:func:`repro.serve.batchmatch.encode_id_transactions`) against set
  inclusion: bit ``i`` of a packed row is set iff item ``i`` is in the
  row, over one to three words (ids up to 149), empty rows and
  duplicate ids.
"""

from __future__ import annotations

import importlib
import pickle
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Item, PruningConfig, TransactionDatabase
from repro.core.fpgrowth import fpgrowth
from repro.core.items import ItemVocabulary
from repro.core.itemsets import FrequentItemsets
from repro.core.pruning import keyword_condition_codes, prune_rule_table
from repro.core.rules import AssociationRule, generate_rule_table
from repro.serve.batchmatch import encode_id_transactions

from .oracles import condition_codes, support_counts, table_of

# -- FP-Growth --------------------------------------------------------------------


def _vocab(n_items: int) -> ItemVocabulary:
    return ItemVocabulary(Item.flag(f"i{i}") for i in range(n_items))


@st.composite
def databases(draw):
    """Narrow transactions over 8, 70 or 140 items; empties allowed."""
    n_items = draw(st.sampled_from([8, 70, 140]))
    txn = st.lists(st.integers(0, n_items - 1), max_size=7)
    return n_items, draw(st.lists(txn, max_size=50))


@given(
    data=databases(),
    min_support=st.sampled_from([0.0, 0.02, 0.1, 0.3, 1.0]),
    max_len=st.sampled_from([None, 1, 2, 3, 5]),
)
@settings(max_examples=150, deadline=None)
def test_fpgrowth_matches_object_tree_and_brute_force(data, min_support, max_len):
    n_items, raw = data
    db = TransactionDatabase.from_itemsets(raw, vocabulary=_vocab(n_items))
    assert fpgrowth(db, min_support, max_len) == support_counts(raw, min_support, max_len)


@given(
    data=databases(),
    bounds=st.tuples(st.integers(0, 50), st.integers(0, 50)),
    max_len=st.sampled_from([None, 2]),
)
@settings(max_examples=60, deadline=None)
def test_fpgrowth_on_txn_range_views(data, bounds, max_len):
    n_items, raw = data
    db = TransactionDatabase.from_itemsets(raw, vocabulary=_vocab(n_items))
    start, stop = sorted(min(b, len(raw)) for b in bounds)
    view = db.txn_range(start, stop)
    assert fpgrowth(view, 0.05, max_len) == support_counts(
        raw[start:stop], 0.05, max_len
    )


def test_fpgrowth_with_more_than_128_frequent_items():
    # three mask words; every item frequent at min_support 0
    raw = [[i, (i + 1) % 150, (3 * i) % 150] for i in range(150)] + [[]]
    db = TransactionDatabase.from_itemsets(raw, vocabulary=_vocab(150))
    got = fpgrowth(db, 0.0, None)
    assert sum(len(s) == 1 for s in got) == 150
    assert got == support_counts(raw, 0.0, None)


def test_fpgrowth_keeps_sibling_nodes_with_equal_rows_apart():
    # ids rank as they are numbered (a, b, x, y, p by falling count).
    # Siblings (x) and (y) of the first level, and (p, x) and (p, y) of
    # the second, each project to the same rows {a, b} of weight 3: rows
    # are deduplicated per node, never across nodes
    a, b, x, y, p = range(5)
    raw = [[a, b, x, p]] * 3 + [[a, b, y, p]] * 3 + [[x, y]] * 4 + [[a, b]] * 4
    db = TransactionDatabase.from_itemsets(raw, vocabulary=_vocab(5))
    got = fpgrowth(db, 0.2, None)
    assert got[frozenset({a, b, x, p})] == got[frozenset({a, b, y, p})] == 3
    assert got[frozenset({a, b, x})] == got[frozenset({a, b, y})] == 3
    assert got == support_counts(raw, 0.2, None)


# -- Conditions 1–4 ---------------------------------------------------------------

KEYWORD = Item.flag("i0")

_LIFTS = [1.0, 1.5, 2.0, 2.25, 3.0, 4.5, 6.75]
_SUPPORTS = [0.05, 0.075, 0.1, 0.15, 0.2, 0.3]
_MARGINS = st.sampled_from([1.0, 1.25, 1.5, 2.0, 3.0])


def make_rule(ant: list[int], cons: list[int], support: float, lift: float):
    return AssociationRule(
        antecedent=frozenset(Item.flag(f"i{i}") for i in ant),
        consequent=frozenset(Item.flag(f"i{i}") for i in cons),
        antecedent_ids=frozenset(ant),
        consequent_ids=frozenset(cons),
        support=support,
        confidence=0.5,
        lift=lift,
        leverage=0.0,
        conviction=1.0,
    )


@st.composite
def keyword_rule_sets(draw):
    """Rules whose sides are drawn from a small pool, so they nest often.

    Pool ids go up to 149 (three mask words) and a side holds up to 8
    items; metrics come from small grids whose products with the margins
    hit the ``>=`` boundaries exactly.  Duplicate rules can occur.
    """
    n_items = draw(st.sampled_from([12, 150]))
    pool = draw(
        st.lists(st.integers(1, n_items - 1), min_size=2, max_size=9, unique=True)
    )
    rules = []
    for _ in range(draw(st.integers(1, 40))):
        members = draw(
            st.lists(st.sampled_from(pool), min_size=1, max_size=8, unique=True)
        )
        if draw(st.booleans()):  # keyword in the antecedent
            cut = draw(st.integers(0, len(members) - 1))
            ant, cons = [0, *members[:cut]], members[cut:]
        else:
            cut = draw(st.integers(1, len(members)))
            ant, cons = members[:cut], [0, *members[cut:]]
        rules.append(
            make_rule(
                ant, cons, draw(st.sampled_from(_SUPPORTS)), draw(st.sampled_from(_LIFTS))
            )
        )
    return n_items, rules


def assert_join_matches_oracle(rules, config, n_items, table=None):
    """Codes of the production join equal the oracle's, rule by rule.

    *table* (the same rules, in order, with split provenance) is checked
    too when given; every table is also checked without provenance.
    """
    relevant_rows = [i for i, r in enumerate(rules) if r.contains(KEYWORD)]
    relevant = [rules[i] for i in relevant_rows]
    expected = condition_codes(
        [(r.antecedent_ids, r.consequent_ids, r.support, r.confidence, r.lift)
         for r in relevant],
        0, config.c_lift, config.c_supp,
    )
    expected_counts = Counter(code for code in expected if code)
    tables = [table_of(rules, _vocab(n_items))]
    if table is not None:
        assert table._splits is not None
        tables += [table, pickle.loads(pickle.dumps(table))]
    for candidate in tables:
        rows, codes = keyword_condition_codes(candidate, KEYWORD, config)
        assert rows.tolist() == relevant_rows
        assert codes.tolist() == expected

        kept, report = prune_rule_table(candidate, KEYWORD, config)
        assert kept.to_rules() == [r for r, code in zip(relevant, expected) if not code]
        assert report.pruned_by_condition == expected_counts


@given(data=keyword_rule_sets(), c_lift=_MARGINS, c_supp=_MARGINS)
@settings(max_examples=200, deadline=None)
def test_join_codes_match_legacy_on_synthetic_rules(data, c_lift, c_supp):
    n_items, rules = data
    assert_join_matches_oracle(rules, PruningConfig(c_lift, c_supp), n_items)


@given(
    noise=st.lists(st.lists(st.integers(0, 9), max_size=5), max_size=12),
    min_lift=st.sampled_from([0.0, 1.0, 1.5]),
    c_lift=_MARGINS,
    c_supp=_MARGINS,
)
@settings(max_examples=30, deadline=None)
def test_join_codes_match_legacy_on_mined_rules(noise, min_lift, c_lift, c_supp):
    # eight copies of one 7-item transaction make 7-itemsets frequent, so
    # unbounded mining yields rules with antecedents of up to 6 items
    raw = [list(range(7))] * 8 + noise
    db = TransactionDatabase.from_itemsets(raw, vocabulary=_vocab(10))
    itemsets = FrequentItemsets(fpgrowth(db, 0.3, None), db.vocabulary, len(db), 0.3)
    table = generate_rule_table(itemsets, min_lift=min_lift)
    assert_join_matches_oracle(
        table.to_rules(), PruningConfig(c_lift, c_supp), 10, table=table
    )


def test_pair_counts_summed_over_blocks(monkeypatch):
    # blocks of a few rows must add up to the one-block counts
    kernel = importlib.import_module("repro.core.fpgrowth")

    raw = [[i % 9, (i * 7) % 80, (i * 5) % 70, 3] for i in range(200)]
    db = TransactionDatabase.from_itemsets(raw, vocabulary=_vocab(80))
    expected = fpgrowth(db, 0.01, 3)
    monkeypatch.setattr(kernel, "_PAIR_BLOCK", 256)
    assert fpgrowth(db, 0.01, 3) == expected == support_counts(raw, 0.01, 3)


def test_level_pair_counts_summed_over_blocks(monkeypatch):
    # rows of 6-9 of 12 items reach itemsets of six and more, so the
    # levels below depth 1 count their pairs block by block too
    kernel = importlib.import_module("repro.core.fpgrowth")

    rng = np.random.default_rng(5)
    raw = [
        sorted(rng.choice(12, size=int(rng.integers(6, 10)), replace=False).tolist())
        for _ in range(120)
    ]
    db = TransactionDatabase.from_itemsets(raw, vocabulary=_vocab(12))
    expected = fpgrowth(db, 0.05, None)
    assert max(len(s) for s in expected) >= 6
    monkeypatch.setattr(kernel, "_PAIR_BLOCK", 40)
    assert fpgrowth(db, 0.05, None) == expected == support_counts(raw, 0.05, None)


# -- serving batch encoder ----------------------------------------------------------


@st.composite
def _id_rows(draw):
    n_words = draw(st.integers(min_value=1, max_value=3))
    top = min(149, 64 * n_words - 1)
    rows = draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=top), max_size=24),
            max_size=12,
        )
    )
    return n_words, rows


@settings(max_examples=200, deadline=None)
@given(_id_rows())
def test_encode_id_transactions_is_set_inclusion(case):
    n_words, rows = case
    words = encode_id_transactions(rows, n_words)
    assert words.dtype == np.uint64
    assert words.shape == (len(rows), n_words)
    for row, packed in zip(rows, words.tolist()):
        members = set(row)
        for item in range(64 * n_words):
            bit = (packed[item >> 6] >> (item & 63)) & 1
            assert bit == (item in members), (row, item)
