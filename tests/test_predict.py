"""Tests for the rule-based classifier and its evaluation utilities."""

import numpy as np
import pytest

from repro.core import (
    Item,
    MiningConfig,
    TransactionDatabase,
    generate_rule_table,
    mine_frequent_itemsets,
)
from repro.core.rules import AssociationRule
from repro.predict import (
    ClassificationReport,
    RuleClassifier,
    evaluate_predictions,
    split_database,
)

from .oracles import predict_transaction, table_of


@pytest.fixture()
def labelled_db():
    """Synthetic DB with a clean implication: {a, b} ⇒ target."""
    rng = np.random.default_rng(42)
    txns = []
    for _ in range(400):
        a = rng.random() < 0.5
        b = rng.random() < 0.5
        target = (a and b and rng.random() < 0.9) or rng.random() < 0.05
        items = []
        if a:
            items.append("a")
        if b:
            items.append("b")
        if rng.random() < 0.5:
            items.append("noise")
        if target:
            items.append("target")
        txns.append(items)
    return TransactionDatabase.from_itemsets(txns)


def _table(db):
    cfg = MiningConfig(min_support=0.02, min_lift=1.0, max_len=3)
    return generate_rule_table(
        mine_frequent_itemsets(db, cfg),
        min_lift=cfg.min_lift, min_confidence=cfg.min_confidence,
    )


def _classifier(db, **kwargs):
    return RuleClassifier.from_table(_table(db), "target", **kwargs)


class TestConstruction:
    def test_keeps_only_exact_target_consequents(self, labelled_db):
        clf = _classifier(labelled_db)
        assert len(clf) > 0
        for rule in clf.rules:
            assert Item.flag("target") not in rule.antecedent

    def test_rules_sorted_by_confidence(self, labelled_db):
        clf = _classifier(labelled_db)
        confidences = [r.confidence for r in clf.rules]
        assert confidences == sorted(confidences, reverse=True)

    def test_allowed_features_filter(self, labelled_db):
        clf = _classifier(labelled_db, allowed_features={"a"})
        for rule in clf.rules:
            assert all(i.feature == "a" for i in rule.antecedent)

    def test_min_confidence_filter(self, labelled_db):
        clf = _classifier(labelled_db, min_confidence=0.8)
        assert all(r.confidence >= 0.8 for r in clf.rules)


def object_filter(table, target, allowed=None, min_confidence=0.0):
    """The decision rules stated over rule objects, in table order:
    consequent exactly ``{target}``, confidence at least the floor, and
    every antecedent item's feature allowed."""
    return [
        rule
        for rule in table.to_rules()
        if rule.consequent == frozenset({Item.flag(target)})
        and rule.confidence >= min_confidence
        and (allowed is None or all(i.feature in allowed for i in rule.antecedent))
    ]


#: ids for the hand-built rules (``table_of`` keys items by item, not id)
IDS = {"a": 0, "b": 1, "target": 2, "GPU = T4": 3}


def _rule(ant, cons, confidence, lift=2.0, support=0.1):
    return AssociationRule(
        antecedent=frozenset(map(Item.parse, ant)),
        consequent=frozenset(map(Item.parse, cons)),
        antecedent_ids=frozenset(map(IDS.get, ant)),
        consequent_ids=frozenset(map(IDS.get, cons)),
        support=support, confidence=confidence, lift=lift,
        leverage=0.0, conviction=1.0,
    )


class TestFromTable:
    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"min_confidence": 0.5}, {"allowed_features": {"a"}},
         {"allowed_features": {"a", "noise"}, "min_confidence": 0.3}],
    )
    def test_equals_the_rule_object_filter(self, labelled_db, kwargs):
        table = _table(labelled_db)
        clf = RuleClassifier.from_table(table, "target", **kwargs)
        oracle = object_filter(
            table, "target", kwargs.get("allowed_features"),
            kwargs.get("min_confidence", 0.0),
        )
        oracle.sort(key=lambda r: (-r.confidence, -r.lift, -r.support))
        assert [(r.antecedent, r.antecedent_ids, r.confidence, r.lift, r.support)
                for r in clf.rules] == [
            (r.antecedent, r.antecedent_ids, r.confidence, r.lift, r.support)
            for r in oracle
        ]

    def test_hand_built_boundaries(self):
        table = table_of([
            _rule(["a"], ["target"], 0.6),                      # kept
            _rule(["a", "b"], ["target"], 0.5999999),           # below the floor
            _rule(["a"], ["target", "b"], 0.9),                 # consequent too wide
            _rule(["target"], ["a"], 0.9),                      # target on the left
            _rule(["GPU = T4"], ["target"], 0.9),               # barred feature
            _rule(["b"], ["target"], 0.6, lift=3.0),            # kept, stronger
        ])
        clf = RuleClassifier.from_table(
            table, "target", allowed_features={"a", "b"}, min_confidence=0.6
        )
        assert [sorted(i.render() for i in r.antecedent) for r in clf.rules] == [
            ["b"], ["a"]
        ]
        assert all(
            r.antecedent == table.vocabulary.items_of(r.antecedent_ids)
            for r in clf.rules
        )

    def test_target_outside_the_vocabulary_keeps_nothing(self, labelled_db):
        assert len(RuleClassifier.from_table(_table(labelled_db), "ghost")) == 0


class TestPrediction:
    def test_recovers_planted_implication(self, labelled_db):
        # min_confidence 0.7 keeps only the sharp {a, b} ⇒ target rule;
        # the one-item generalisations sit near conf 0.5 by construction
        clf = _classifier(labelled_db, min_confidence=0.7)
        predicted = clf.predict(labelled_db)
        actual = clf.labels(labelled_db)
        report = evaluate_predictions(predicted, actual)
        # the {a, b} ⇒ target implication is sharp: strong lift over base
        assert report.precision > 2 * report.base_rate
        assert report.recall > 0.5

    def test_predict_transaction_matches_vectorised(self, labelled_db):
        clf = _classifier(labelled_db, min_confidence=0.5)
        predicted = clf.predict(labelled_db)
        for i, txn in enumerate(labelled_db.iter_id_transactions()):
            assert predict_transaction(clf, txn.tolist()) == predicted[i]

    def test_empty_classifier_predicts_all_negative(self, labelled_db):
        clf = RuleClassifier("target", [])
        assert not clf.predict(labelled_db).any()

    def test_unknown_target_labels_all_negative(self, labelled_db):
        clf = RuleClassifier("ghost-target", [])
        assert not clf.labels(labelled_db).any()

    def test_generalises_to_holdout(self, labelled_db):
        train, test = split_database(labelled_db, 0.7, seed=1)
        clf = RuleClassifier.from_table(_table(train), "target", min_confidence=0.5)
        report = evaluate_predictions(clf.predict(test), clf.labels(test))
        assert report.f1 > 0.4


class TestEvaluation:
    def test_confusion_matrix_counts(self):
        predicted = np.asarray([True, True, False, False])
        actual = np.asarray([True, False, True, False])
        r = evaluate_predictions(predicted, actual)
        assert (r.tp, r.fp, r.fn, r.tn) == (1, 1, 1, 1)
        assert r.accuracy == 0.5
        assert r.precision == 0.5
        assert r.recall == 0.5
        assert r.f1 == 0.5
        assert r.base_rate == 0.5

    def test_degenerate_cases(self):
        r = evaluate_predictions(np.asarray([False]), np.asarray([False]))
        assert r.precision == 0.0 and r.recall == 0.0 and r.f1 == 0.0
        assert r.accuracy == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            evaluate_predictions(np.asarray([True]), np.asarray([True, False]))

    def test_report_str(self):
        r = ClassificationReport(tp=1, fp=1, tn=1, fn=1)
        assert "precision=0.500" in str(r)


class TestSplit:
    def test_split_partitions(self, labelled_db):
        train, test = split_database(labelled_db, 0.7, seed=2)
        assert len(train) + len(test) == len(labelled_db)
        assert len(train) == round(0.7 * len(labelled_db))

    def test_split_deterministic(self, labelled_db):
        a1, b1 = split_database(labelled_db, 0.5, seed=3)
        a2, b2 = split_database(labelled_db, 0.5, seed=3)
        assert a1.indices.tolist() == a2.indices.tolist()
        assert b1.indices.tolist() == b2.indices.tolist()

    def test_invalid_fraction(self, labelled_db):
        with pytest.raises(ValueError):
            split_database(labelled_db, 0.0)
        with pytest.raises(ValueError):
            split_database(labelled_db, 1.0)
