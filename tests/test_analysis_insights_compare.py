"""Tests for insight extraction."""

from repro.analysis.insights import (
    Insight,
    detect_debug_tier,
    detect_gang_screening,
    detect_heavy_user_support,
    detect_late_failures,
    detect_new_user_onboarding,
    detect_submission_predictability,
    detect_weak_predictability,
    extract_insights,
)
from repro.core import Item, MiningConfig, mine_keyword_rules
from repro.core.mining import KeywordRuleSet
from repro.core.pruning import PruningReport
from repro.core.rules import AssociationRule

IDS: dict[str, int] = {}


def _item(text: str) -> Item:
    return Item.parse(text)


def _rule(ant_texts, cons_texts, conf=0.8, lift=2.0, supp=0.1):
    for t in list(ant_texts) + list(cons_texts):
        IDS.setdefault(t, len(IDS))
    return AssociationRule(
        antecedent=frozenset(_item(t) for t in ant_texts),
        consequent=frozenset(_item(t) for t in cons_texts),
        antecedent_ids=frozenset(IDS[t] for t in ant_texts),
        consequent_ids=frozenset(IDS[t] for t in cons_texts),
        support=supp,
        confidence=conf,
        lift=lift,
        leverage=0.0,
        conviction=1.0,
    )


def _ruleset(keyword, cause=(), characteristic=()):
    return KeywordRuleSet(
        keyword=_item(keyword),
        cause=tuple(cause),
        characteristic=tuple(characteristic),
        report=PruningReport(),
        n_rules_before_pruning=len(cause) + len(characteristic),
    )


class TestDetectors:
    def test_submission_predictability_fires(self):
        rs = _ruleset(
            "Failed",
            cause=[_rule(["Freq Group", "CPU Request = Bin1"], ["Failed"], conf=0.95)],
        )
        insight = detect_submission_predictability(rs)
        assert insight is not None
        assert insight.code == "submission-predictability"
        assert insight.evidence

    def test_submission_predictability_ignores_runtime_features(self):
        rs = _ruleset(
            "Failed",
            cause=[_rule(["SM Util = 0%"], ["Failed"], conf=0.95)],
        )
        assert detect_submission_predictability(rs) is None

    def test_weak_predictability(self):
        rs = _ruleset(
            "Failed", cause=[_rule(["GMem Util = Bin1"], ["Failed"], conf=0.25)]
        )
        insight = detect_weak_predictability(rs)
        assert insight is not None
        assert "0.25" in insight.recommendation

    def test_weak_not_fired_when_strong_exists(self):
        rs = _ruleset("Failed", cause=[_rule(["x"], ["Failed"], conf=0.9)])
        assert detect_weak_predictability(rs) is None

    def test_debug_tier_only_for_underutilization(self):
        idle = _ruleset(
            "SM Util = 0%",
            cause=[_rule(["CPU Util = Bin1", "Runtime = Bin1"], ["SM Util = 0%"])],
        )
        assert detect_debug_tier(idle) is not None
        fail = _ruleset(
            "Failed", cause=[_rule(["CPU Util = Bin1"], ["Failed"])]
        )
        assert detect_debug_tier(fail) is None

    def test_heavy_user_support(self):
        rs = _ruleset(
            "Failed", cause=[_rule(["Freq User"], ["Failed"], conf=0.91)]
        )
        assert detect_heavy_user_support(rs) is not None

    def test_late_failures_from_characteristics(self):
        rs = _ruleset(
            "Failed",
            characteristic=[_rule(["Failed"], ["Runtime = Bin4"], conf=0.4, lift=1.7)],
        )
        assert detect_late_failures(rs) is not None

    def test_new_user_onboarding(self):
        rs = _ruleset(
            "Job Killed", cause=[_rule(["New User"], ["Job Killed"], lift=1.8)]
        )
        insight = detect_new_user_onboarding(rs)
        assert insight is not None
        assert "onboarding" in insight.recommendation

    def test_gang_screening_only_for_failure(self):
        fail = _ruleset("Failed", cause=[_rule(["Multi-GPU"], ["Failed"], lift=2.5)])
        assert detect_gang_screening(fail) is not None
        other = _ruleset(
            "SM Util = 0%", cause=[_rule(["Multi-GPU"], ["SM Util = 0%"], lift=2.5)]
        )
        assert detect_gang_screening(other) is None

    def test_render_contains_evidence(self):
        rs = _ruleset("Failed", cause=[_rule(["Multi-GPU"], ["Failed"], lift=2.5)])
        insight = detect_gang_screening(rs)
        text = insight.render()
        assert "gang-screening" in text and "evidence" in text


class TestExtractOnRealTraces:
    def test_pai_failure_insights(self, pai_db):
        cfg = MiningConfig()
        result = mine_keyword_rules(pai_db, "Failed", cfg)
        insights = extract_insights(result)
        codes = {i.code for i in insights}
        # the PAI takeaways: predictable at submission, heavy-user driven
        assert "submission-predictability" in codes
        assert "heavy-user-support" in codes

    def test_supercloud_failure_insights(self, supercloud_db):
        cfg = MiningConfig()
        result = mine_keyword_rules(supercloud_db, "Failed", cfg)
        codes = {i.code for i in extract_insights(result)}
        # SuperCloud: weakly predictable, with late failures
        assert "weak-predictability" in codes
        assert "late-failures" in codes

    def test_philly_failure_insights(self, philly_db):
        cfg = MiningConfig()
        result = mine_keyword_rules(philly_db, "Failed", cfg)
        codes = {i.code for i in extract_insights(result)}
        assert "gang-screening" in codes
        assert "new-user-onboarding" in codes

    def test_underutilization_debug_tier(self, philly_db):
        cfg = MiningConfig()
        result = mine_keyword_rules(philly_db, "SM Util = 0%", cfg)
        codes = {i.code for i in extract_insights(result)}
        assert "debug-tier" in codes
