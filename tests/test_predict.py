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
from repro.predict import (
    ClassificationReport,
    RuleClassifier,
    evaluate_predictions,
    split_database,
)


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


def _rules(db):
    cfg = MiningConfig(min_support=0.02, min_lift=1.0, max_len=3)
    return generate_rule_table(
        mine_frequent_itemsets(db, cfg),
        min_lift=cfg.min_lift, min_confidence=cfg.min_confidence,
    )


def _classifier(db, **kwargs):
    rules = _rules(db)
    return RuleClassifier.from_rules(rules, "target", **kwargs)


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

    def test_max_rules_cap(self, labelled_db):
        clf = _classifier(labelled_db, max_rules=2)
        assert len(clf) <= 2


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
            assert clf.predict_transaction(set(txn.tolist())) == predicted[i]

    def test_matching_rule_explains_positives(self, labelled_db):
        clf = _classifier(labelled_db, min_confidence=0.5)
        predicted = clf.predict(labelled_db)
        for i, txn in enumerate(labelled_db.iter_id_transactions()):
            rule = clf.matching_rule(set(txn.tolist()))
            assert (rule is not None) == predicted[i]
            if rule is not None:
                assert rule.antecedent_ids <= set(txn.tolist())

    def test_empty_classifier_predicts_all_negative(self, labelled_db):
        clf = RuleClassifier("target", [])
        assert not clf.predict(labelled_db).any()

    def test_unknown_target_labels_all_negative(self, labelled_db):
        clf = RuleClassifier("ghost-target", [])
        assert not clf.labels(labelled_db).any()

    def test_generalises_to_holdout(self, labelled_db):
        train, test = split_database(labelled_db, 0.7, seed=1)
        rules = _rules(train)
        clf = RuleClassifier.from_rules(rules, "target", min_confidence=0.5)
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
