"""Tests for rule-drift diffing."""

import math

import pytest

from repro.analysis.drift import RuleDrift, diff_rules
from repro.core import Item
from repro.core.items import ItemVocabulary
from repro.core.rules import AssociationRule
from repro.serve.rulebook import RuleBook

from .oracles import table_of

IDS = {"a": 0, "b": 1, "K": 2, "c": 3}
VOCAB = ItemVocabulary(Item.flag(t) for t in IDS)


def rule(ant, cons, lift=2.0, conf=0.5, supp=0.1, leverage=0.0, conviction=1.0):
    return AssociationRule(
        antecedent=frozenset(Item.flag(t) for t in ant),
        consequent=frozenset(Item.flag(t) for t in cons),
        antecedent_ids=frozenset(IDS[t] for t in ant),
        consequent_ids=frozenset(IDS[t] for t in cons),
        support=supp,
        confidence=conf,
        lift=lift,
        leverage=leverage,
        conviction=conviction,
    )


def stable(drift: RuleDrift) -> bool:
    """No rule appeared or disappeared."""
    return not drift.appeared and not drift.disappeared


def diff(before, after) -> RuleDrift:
    """diff_rules of two rule lists, each as its own table."""
    return diff_rules(table_of(before), table_of(after))


class TestDiffRules:
    def test_identical_sets_stable(self):
        rules = [rule(["a"], ["K"]), rule(["b"], ["K"])]
        drift = diff(rules, rules)
        assert stable(drift)
        assert len(drift.changed) == 2
        assert all(c.lift_delta == 0.0 for c in drift.changed)

    def test_appeared_and_disappeared(self):
        before = [rule(["a"], ["K"])]
        after = [rule(["b"], ["K"])]
        drift = diff(before, after)
        assert [str(r) for r in drift.appeared] == [str(after[0])]
        assert [str(r) for r in drift.disappeared] == [str(before[0])]
        assert not stable(drift)

    def test_metric_movement_tracked(self):
        before = [rule(["a"], ["K"], lift=2.0, conf=0.4)]
        after = [rule(["a"], ["K"], lift=3.0, conf=0.6)]
        drift = diff(before, after)
        change = drift.changed[0]
        assert change.lift_delta == pytest.approx(1.0)
        assert change.after.confidence - change.before.confidence == pytest.approx(0.2)

    def test_strengthened_weakened_thresholds(self):
        before = [
            rule(["a"], ["K"], lift=2.0),
            rule(["b"], ["K"], lift=4.0),
            rule(["c"], ["K"], lift=3.0),
        ]
        after = [
            rule(["a"], ["K"], lift=3.5),   # +1.5
            rule(["b"], ["K"], lift=2.0),   # -2.0
            rule(["c"], ["K"], lift=3.1),   # +0.1 (below threshold)
        ]
        drift = diff(before, after)
        assert [c.after.lift for c in drift.strengthened()] == [3.5]
        assert [c.after.lift for c in drift.weakened()] == [2.0]

    def test_direction_matters_in_identity(self):
        # a ⇒ K and K ⇒ a are different rules
        before = [rule(["a"], ["K"])]
        after = [rule(["K"], ["a"])]
        drift = diff(before, after)
        assert len(drift.appeared) == 1
        assert len(drift.disappeared) == 1

    def test_render_smoke(self):
        drift = diff([rule(["a"], ["K"])], [rule(["b"], ["K"], lift=5.0)])
        text = drift.render()
        assert "appeared" in text and "disappeared" in text

    def test_empty_sets(self):
        drift = diff([], [])
        assert stable(drift)
        assert drift.changed == []

    def test_disjoint_vocabularies_full_turnover(self):
        # rule sets sharing no items: everything appeared + disappeared,
        # nothing spuriously "changed"
        before = [rule(["a"], ["K"]), rule(["b"], ["K"])]
        after = [rule(["c"], ["b"]), rule(["K"], ["c"])]
        drift = diff(before, after)
        assert len(drift.appeared) == 2
        assert len(drift.disappeared) == 2
        assert drift.changed == []


class TestDiffRuleTables:
    """diff_rules on tables keyed by items, whatever their id-spaces."""

    def test_table_vs_objects_equivalent(self):
        # the table diff is the set difference of the rule objects' keys
        before = [rule(["a"], ["K"]), rule(["b"], ["K"], lift=4.0)]
        after = [rule(["a"], ["K"], lift=3.0), rule(["c"], ["K"])]
        drift = diff(before, after)

        def key(r):
            return r.antecedent, r.consequent

        lift_before = {key(r): r.lift for r in before}
        assert sorted(map(str, drift.appeared)) == sorted(
            str(r) for r in after if key(r) not in lift_before
        )
        assert sorted(map(str, drift.disappeared)) == sorted(
            str(r) for r in before if key(r) not in set(map(key, after))
        )
        assert {(str(c.after), c.lift_delta) for c in drift.changed} == {
            (str(r), r.lift - lift_before[key(r)]) for r in after if key(r) in lift_before
        }

    def test_mixed_forms_and_different_id_spaces(self):
        # the same rules through RuleBook canonicalisation get a densified
        # id-space; item-keyed diffing must still see them as identical
        rules = [rule(["a", "b"], ["K"]), rule(["c"], ["K"])]
        book = RuleBook(table_of(rules))
        drift = diff_rules(table_of(rules, VOCAB), book.table)
        assert stable(drift)
        assert len(drift.changed) == 2

    def test_identical_tables_stable(self):
        table = table_of([rule(["a"], ["K"])])
        drift = diff_rules(table, table)
        assert stable(drift) and len(drift.changed) == 1

    def test_inf_nan_metrics_survive_json_round_trip(self, tmp_path):
        # exact implications have conviction inf; a degenerate recount can
        # produce nan — both must diff cleanly after strict-JSON save/load
        exotic = [
            rule(["a"], ["K"], lift=math.inf, conf=1.0, conviction=math.inf),
            rule(["b"], ["K"], lift=2.0, leverage=math.nan),
        ]
        book = RuleBook(table_of(exotic))
        path = tmp_path / "exotic.jsonl"
        book.save(path)
        loaded = RuleBook.load(path)
        drift = diff_rules(book.table, loaded.table)
        assert stable(drift)
        by_str = {str(c.after): c.after for c in drift.changed}
        exact = by_str[str(exotic[0])]
        assert math.isinf(exact.conviction) and math.isinf(exact.lift)
        assert math.isnan(by_str[str(exotic[1])].leverage)
        # lift inf - inf is nan — delta computation must not raise
        assert math.isnan(
            next(c for c in drift.changed if str(c.after) == str(exotic[0]))
            .lift_delta
        )
