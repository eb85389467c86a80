"""Tests for Conditions 1–4 (Sec. III-D), including the paper's own
worked R1/R2 examples."""

import pytest

from repro.core import Item, PruningConfig, prune_rules
from repro.core.pruning import keyword_rules
from repro.core.rules import AssociationRule

# item universe used across the tests
USER_A = Item.flag("user A")
TYPE_B = Item.flag("job type B")
FAILURE = Item.flag("job failure")
SHORT = Item.flag("short runtime")
CLUSTER_C = Item.flag("cluster C")

IDS = {USER_A: 0, TYPE_B: 1, FAILURE: 2, SHORT: 3, CLUSTER_C: 4}


def rule(antecedent, consequent, supp, lift, conf=0.5):
    return AssociationRule(
        antecedent=frozenset(antecedent),
        consequent=frozenset(consequent),
        antecedent_ids=frozenset(IDS[i] for i in antecedent),
        consequent_ids=frozenset(IDS[i] for i in consequent),
        support=supp,
        confidence=conf,
        lift=lift,
        leverage=0.0,
        conviction=1.0,
    )


CFG = PruningConfig(c_lift=1.5, c_supp=1.5)


class TestCondition1:
    """Keyword in consequent, antecedents nested (cause analysis)."""

    def test_shorter_wins_on_similar_lift(self):
        # paper: R1 {user A} => {failure}, R2 {user A, type B} => {failure};
        # lift of R1 similar/higher → prune R2
        r1 = rule([USER_A], [FAILURE], supp=0.2, lift=3.0)
        r2 = rule([USER_A, TYPE_B], [FAILURE], supp=0.1, lift=3.5)  # 1.5*3 >= 3.5
        kept, report = prune_rules([r1, r2], FAILURE, CFG)
        assert kept == [r1]
        assert report.pruned_by_condition[1] == 1

    def test_longer_wins_on_higher_lift_and_similar_support(self):
        # R2 has clearly higher lift and similar support → prune R1
        r1 = rule([USER_A], [FAILURE], supp=0.12, lift=2.0)
        r2 = rule([USER_A, TYPE_B], [FAILURE], supp=0.10, lift=4.0)
        kept, _ = prune_rules([r1, r2], FAILURE, CFG)
        assert kept == [r2]

    def test_both_kept_when_longer_lift_high_but_support_collapses(self):
        # longer rule has high lift but much smaller support → neither test
        # fires against the shorter rule, and its own lift blocks C1
        r1 = rule([USER_A], [FAILURE], supp=0.5, lift=2.0)
        r2 = rule([USER_A, TYPE_B], [FAILURE], supp=0.05, lift=4.0)
        kept, _ = prune_rules([r1, r2], FAILURE, CFG)
        assert kept == [r1, r2]


class TestCondition2:
    """Keyword in antecedent, consequents nested (characteristic analysis)."""

    def test_more_specific_consequent_preferred(self):
        # paper: {failure} => {short} vs {failure} => {short, cluster C};
        # similar lift & support → keep the longer (more informative)
        r1 = rule([FAILURE], [SHORT], supp=0.12, lift=2.0)
        r2 = rule([FAILURE], [SHORT, CLUSTER_C], supp=0.10, lift=1.8)
        kept, report = prune_rules([r1, r2], FAILURE, CFG)
        assert kept == [r2]
        assert report.pruned_by_condition[2] == 1

    def test_conservative_rule_kept_on_clear_lift_advantage(self):
        # R1 has a clear lift advantage → binding to cluster C misleads
        r1 = rule([FAILURE], [SHORT], supp=0.12, lift=4.0)
        r2 = rule([FAILURE], [SHORT, CLUSTER_C], supp=0.10, lift=2.0)
        kept, _ = prune_rules([r1, r2], FAILURE, CFG)
        assert kept == [r1]

    def test_both_kept_when_support_gap_large(self):
        # similar lift but the long rule is rare → short not pruned; long
        # rule's lift is not strictly worse → long kept too
        r1 = rule([FAILURE], [SHORT], supp=0.5, lift=2.0)
        r2 = rule([FAILURE], [SHORT, CLUSTER_C], supp=0.05, lift=2.0)
        kept, _ = prune_rules([r1, r2], FAILURE, CFG)
        assert kept == [r1, r2]


class TestCondition3:
    """Keyword in both consequents, consequents nested (cause analysis)."""

    def test_concise_consequent_preferred(self):
        # paper: {user A} => {failure} vs {user A} => {failure, cluster C}
        r1 = rule([USER_A], [FAILURE], supp=0.2, lift=3.0)
        r2 = rule([USER_A], [FAILURE, CLUSTER_C], supp=0.1, lift=3.2)
        kept, report = prune_rules([r1, r2], FAILURE, CFG)
        assert kept == [r1]
        assert report.pruned_by_condition[3] == 1

    def test_longer_kept_when_much_stronger(self):
        r1 = rule([USER_A], [FAILURE], supp=0.2, lift=1.6)
        r2 = rule([USER_A], [FAILURE, CLUSTER_C], supp=0.1, lift=3.0)
        kept, _ = prune_rules([r1, r2], FAILURE, CFG)
        assert r2 in kept


class TestCondition4:
    """Keyword in both antecedents, antecedents nested (characteristics)."""

    def test_generalising_antecedent_preferred(self):
        # paper: {failure} => {short} vs {failure, cluster C} => {short}
        r1 = rule([FAILURE], [SHORT], supp=0.2, lift=2.5)
        r2 = rule([FAILURE, CLUSTER_C], [SHORT], supp=0.1, lift=2.6)
        kept, report = prune_rules([r1, r2], FAILURE, CFG)
        assert kept == [r1]
        assert report.pruned_by_condition[4] == 1

    def test_specific_antecedent_kept_when_much_stronger(self):
        r1 = rule([FAILURE], [SHORT], supp=0.2, lift=1.6)
        r2 = rule([FAILURE, CLUSTER_C], [SHORT], supp=0.1, lift=3.0)
        kept, _ = prune_rules([r1, r2], FAILURE, CFG)
        assert r2 in kept


class TestGeneralBehaviour:
    def test_rules_without_keyword_removed(self):
        r = rule([USER_A], [SHORT], supp=0.2, lift=2.0)
        kept, report = prune_rules([r], FAILURE, CFG)
        assert kept == []
        assert report.n_input == 0

    def test_keyword_rules_helper(self):
        with_kw = rule([FAILURE], [SHORT], 0.1, 2.0)
        without = rule([USER_A], [SHORT], 0.1, 2.0)
        assert keyword_rules([with_kw, without], FAILURE) == [with_kw]

    def test_keyword_accepts_string(self):
        r = rule([FAILURE], [SHORT], 0.1, 2.0)
        kept, _ = prune_rules([r], "job failure", CFG)
        assert kept == [r]

    def test_non_nested_rules_untouched(self):
        r1 = rule([USER_A], [FAILURE], 0.2, 3.0)
        r2 = rule([TYPE_B], [FAILURE], 0.2, 3.0)
        kept, _ = prune_rules([r1, r2], FAILURE, CFG)
        assert kept == [r1, r2]

    def test_order_independence(self):
        r1 = rule([USER_A], [FAILURE], supp=0.2, lift=3.0)
        r2 = rule([USER_A, TYPE_B], [FAILURE], supp=0.1, lift=3.5)
        kept_a, _ = prune_rules([r1, r2], FAILURE, CFG)
        kept_b, _ = prune_rules([r2, r1], FAILURE, CFG)
        assert set(map(str, kept_a)) == set(map(str, kept_b))

    def test_report_counts_consistent(self):
        r1 = rule([USER_A], [FAILURE], supp=0.2, lift=3.0)
        r2 = rule([USER_A, TYPE_B], [FAILURE], supp=0.1, lift=3.5)
        r3 = rule([TYPE_B], [SHORT], supp=0.1, lift=3.5)  # no keyword
        kept, report = prune_rules([r1, r2, r3], FAILURE, CFG)
        assert report.n_input == 2
        assert report.n_kept == len(kept) == 1
        assert report.n_pruned == 1
        assert "C1" in str(report)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            PruningConfig(c_lift=0.5)
        with pytest.raises(ValueError):
            PruningConfig(c_supp=0.0)

    def test_condense_argument_rejected(self):
        """Conditions 1-4 are the only pruning: there is no condensation pass."""
        r = rule([FAILURE], [SHORT], 0.1, 2.0)
        with pytest.raises(TypeError):
            prune_rules([r], FAILURE, CFG, condense=True)

    def test_c_lift_one_is_strict_comparison(self):
        cfg = PruningConfig(c_lift=1.0, c_supp=1.0)
        r1 = rule([USER_A], [FAILURE], supp=0.2, lift=3.0)
        r2 = rule([USER_A, TYPE_B], [FAILURE], supp=0.1, lift=3.1)
        # 1.0 * 3.0 < 3.1, so condition flips to the support branch:
        # 1.0 * 0.1 < 0.2 → nothing pruned
        kept, _ = prune_rules([r1, r2], FAILURE, cfg)
        assert kept == [r1, r2]
