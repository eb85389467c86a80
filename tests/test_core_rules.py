"""Unit + property tests for rule generation and the rule dataclass."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FrequentItemsets,
    Item,
    MiningConfig,
    TransactionDatabase,
    generate_rule_table,
    mine_frequent_itemsets,
    mine_keyword_rules,
)
from repro.core.rules import AssociationRule


def _itemsets(db, min_support=0.2, max_len=None):
    return mine_frequent_itemsets(
        db, MiningConfig(min_support=min_support, max_len=max_len)
    )


class TestAssociationRule:
    def _rule(self):
        vocab_items = {0: Item("a", "1"), 1: Item.flag("F")}
        return AssociationRule(
            antecedent=frozenset({vocab_items[0]}),
            consequent=frozenset({vocab_items[1]}),
            antecedent_ids=frozenset({0}),
            consequent_ids=frozenset({1}),
            support=0.1,
            confidence=0.5,
            lift=2.0,
            leverage=0.05,
            conviction=1.5,
        )

    def test_disjoint_sides_enforced(self):
        with pytest.raises(ValueError, match="disjoint"):
            AssociationRule(
                antecedent=frozenset({Item("a", "1")}),
                consequent=frozenset({Item("a", "1")}),
                antecedent_ids=frozenset({0}),
                consequent_ids=frozenset({0}),
                support=0.1,
                confidence=0.5,
                lift=2.0,
                leverage=0.0,
                conviction=1.0,
            )

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            AssociationRule(
                antecedent=frozenset(),
                consequent=frozenset({Item("a", "1")}),
                antecedent_ids=frozenset(),
                consequent_ids=frozenset({0}),
                support=0.1,
                confidence=0.5,
                lift=2.0,
                leverage=0.0,
                conviction=1.0,
            )

    def test_items_and_item_ids(self):
        rule = self._rule()
        assert rule.items == frozenset({Item("a", "1"), Item.flag("F")})
        assert rule.item_ids == frozenset({0, 1})

    def test_str_contains_metrics(self):
        text = str(self._rule())
        assert "=>" in text and "lift=2.00" in text

    def test_as_row_flat(self):
        row = self._rule().as_row()
        assert row["antecedent"] == "a = 1"
        assert row["lift"] == 2.0


class TestGenerateRules:
    def test_metrics_match_database(self, toy_db):
        itemsets = _itemsets(toy_db)
        rules = generate_rule_table(itemsets, min_lift=0.0)
        n = len(toy_db)
        for rule in rules:
            supp_xy = toy_db.support_count(rule.antecedent_ids | rule.consequent_ids) / n
            supp_x = toy_db.support_count(rule.antecedent_ids) / n
            supp_y = toy_db.support_count(rule.consequent_ids) / n
            assert rule.support == pytest.approx(supp_xy)
            assert rule.confidence == pytest.approx(supp_xy / supp_x)
            assert rule.lift == pytest.approx(supp_xy / (supp_x * supp_y))

    def test_min_lift_filters(self, toy_db):
        itemsets = _itemsets(toy_db)
        all_rules = generate_rule_table(itemsets, min_lift=0.0)
        strong = generate_rule_table(itemsets, min_lift=1.1)
        assert len(strong) < len(all_rules)
        assert all(r.lift >= 1.1 for r in strong)

    def test_min_confidence_filters(self, toy_db):
        itemsets = _itemsets(toy_db)
        rules = generate_rule_table(itemsets, min_lift=0.0, min_confidence=0.9)
        assert all(r.confidence >= 0.9 for r in rules)

    def test_keyword_restriction(self, toy_db):
        itemsets = _itemsets(toy_db)
        beer = toy_db.vocabulary.id_of("beer")
        rules = generate_rule_table(itemsets, min_lift=0.0, keyword_ids=(beer,))
        assert len(rules)
        assert all(beer in r.item_ids for r in rules)

    def test_sorted_by_lift_desc(self, toy_db):
        rules = generate_rule_table(_itemsets(toy_db), min_lift=0.0)
        lifts = [r.lift for r in rules]
        assert lifts == sorted(lifts, reverse=True)

    def test_empty_itemsets_give_no_rules(self):
        db = TransactionDatabase.from_itemsets([])
        assert len(generate_rule_table(_itemsets(db))) == 0

    def test_deterministic_order(self, toy_db):
        itemsets = _itemsets(toy_db)
        a = [str(r) for r in generate_rule_table(itemsets, min_lift=0.0)]
        b = [str(r) for r in generate_rule_table(itemsets, min_lift=0.0)]
        assert a == b

    def test_invalid_params(self, toy_db):
        itemsets = _itemsets(toy_db)
        with pytest.raises(ValueError):
            generate_rule_table(itemsets, min_lift=-1)
        with pytest.raises(ValueError):
            generate_rule_table(itemsets, min_confidence=2.0)


class TestMineRules:
    def test_end_to_end(self, toy_db):
        cfg = MiningConfig(min_support=0.4, min_lift=1.0)
        rules = generate_rule_table(
            mine_frequent_itemsets(toy_db, cfg),
            min_lift=cfg.min_lift, min_confidence=cfg.min_confidence,
        )
        assert len(rules)
        assert all(r.support >= 0.4 for r in rules)

    def test_unknown_keyword_returns_empty(self, toy_db):
        assert toy_db.vocabulary.get_id("nonexistent item") is None
        assert mine_keyword_rules(toy_db, "nonexistent item").all_rules == ()


@st.composite
def random_db(draw):
    n_items = draw(st.integers(2, 6))
    txns = draw(
        st.lists(
            st.lists(st.integers(0, n_items - 1), max_size=n_items),
            min_size=1,
            max_size=25,
        )
    )
    return TransactionDatabase.from_itemsets(
        [[f"i{i}" for i in t] for t in txns]
    )


@given(db=random_db())
@settings(max_examples=80, deadline=None)
def test_rule_sides_partition_a_frequent_itemset(db):
    itemsets = _itemsets(db, 0.2, 4)
    for rule in generate_rule_table(itemsets, min_lift=0.0):
        union = rule.antecedent_ids | rule.consequent_ids
        assert union in itemsets
        assert not (rule.antecedent_ids & rule.consequent_ids)
        # support of rule equals support of union itemset
        assert rule.support == pytest.approx(
            itemsets.counts[union] / itemsets.n_transactions
        )
